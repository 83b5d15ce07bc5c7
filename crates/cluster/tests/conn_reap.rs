//! Connections that have closed must not stay tracked.
//!
//! The shared listener keeps, for every connection it serves, the
//! handler's `JoinHandle` and a second handle to the stream (to shut the
//! read half at drain time). It used to keep them until shutdown, so a
//! client that reconnects — loadgen's readiness probe,
//! `connect_with_retry`, the router's dial backoff against a restarting
//! shard — cost the process one socket fd (parked in CLOSE_WAIT) and one
//! finished thread handle per connection, on the way to `EMFILE` and a
//! dead accept loop. Both front ends run on that listener, so both are
//! driven here.

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use fs_cluster::{Router, RouterConfig};
use fs_serve::{ServeClient, Server, ServerConfig};

/// Sequential connect → ping → drop cycles; far more than a listener
/// should ever be tracking at once.
const CYCLES: usize = 300;

/// The most sockets a healthy listener may still hold for closed peers:
/// the last few handlers, not yet reaped by a later accept.
const TRACKED_BOUND: usize = 8;

/// Sockets this process still holds on local port `port` whose peer has
/// closed (`CLOSE_WAIT`): each one is a tracked entry the listener has
/// not let go of. The port is the listener's own ephemeral one, so other
/// tests' sockets never count.
#[cfg(target_os = "linux")]
fn close_wait_on(port: u16) -> usize {
    const CLOSE_WAIT: &str = "08";
    let table = std::fs::read_to_string("/proc/net/tcp").expect("procfs socket table");
    let local = format!(":{port:04X}");
    table
        .lines()
        .skip(1)
        .filter(|line| {
            let mut cols = line.split_whitespace().skip(1);
            let on_port = cols.next().is_some_and(|addr| addr.ends_with(&local));
            on_port && cols.nth(1) == Some(CLOSE_WAIT)
        })
        .count()
}

#[cfg(target_os = "linux")]
fn reconnecting_client_leaves_nothing_behind(addr: SocketAddr) {
    for cycle in 0..CYCLES {
        let mut client = ServeClient::connect(addr)
            .unwrap_or_else(|e| panic!("cycle {cycle}: listener stopped accepting: {e}"));
        client.ping().unwrap_or_else(|e| panic!("cycle {cycle}: ping failed: {e}"));
    }
    // One live connection: still accepting, and its accept reaped the
    // handlers that had finished by then.
    let mut client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("still accepting after {CYCLES} cycles: {e}"));
    let tracked = close_wait_on(addr.port());
    assert!(
        tracked <= TRACKED_BOUND,
        "{tracked} closed connections still tracked after {CYCLES} connect/ping/drop cycles"
    );
    client.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
}

#[cfg(target_os = "linux")]
#[test]
fn server_reaps_closed_connections() {
    let server =
        Server::bind(&ServerConfig::default()).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let accept = thread::spawn(move || server.run());
    reconnecting_client_leaves_nothing_behind(addr);
    accept.join().expect("accept loop does not panic").expect("accept loop exits cleanly");
}

#[cfg(target_os = "linux")]
#[test]
fn router_reaps_closed_connections() {
    let router =
        Router::bind(&RouterConfig::default()).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = router.local_addr();
    let accept = thread::spawn(move || router.run());
    reconnecting_client_leaves_nothing_behind(addr);
    accept.join().expect("accept loop does not panic").expect("accept loop exits cleanly");
}
