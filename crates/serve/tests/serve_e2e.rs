//! End-to-end serving tests: micro-batching equivalence under the
//! sanitizer's `Record` mode, and the TCP protocol over loopback.

use std::thread;
use std::time::Duration;

use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use fs_serve::{
    EngineConfig, ServeClient, ServeEngine, Server, ServerConfig, SpmmOutcome, SpmmRequest,
};
use fs_tcu::SanitizeScope;

fn dense_b(rows: usize, n: usize, salt: usize) -> DenseMatrix<f32> {
    let vals: Vec<f32> =
        (0..rows * n).map(|i| (((i + salt * 31) % 17) as f32 - 8.0) * 0.25).collect();
    DenseMatrix::from_f32_slice(rows, n, &vals)
}

/// Micro-batched execution must produce exactly the same bits as
/// one-at-a-time execution, with the sanitizer recording (not panicking)
/// and reporting zero violations — the ISSUE's batching-equivalence
/// acceptance test.
#[test]
fn micro_batched_results_match_one_at_a_time() {
    let _scope = SanitizeScope::record();
    let csr = CsrMatrix::from_coo(&rmat::<f32>(7, 6, RmatConfig::GRAPH500, true, 23));
    let n = 24;
    let requests = 24;
    let operands: Vec<DenseMatrix<f32>> =
        (0..requests).map(|i| dense_b(csr.cols(), n, i)).collect();

    // Reference: a single-worker engine with max_batch = 1, requests
    // issued strictly one at a time.
    let seq =
        ServeEngine::start(EngineConfig { workers: 1, max_batch: 1, ..EngineConfig::default() });
    let seq_id = seq.register_matrix("ref", csr.clone()).expect("registered").id;
    let mut reference = Vec::new();
    for b in &operands {
        match seq.spmm_blocking(SpmmRequest {
            tenant: "ref".to_string(),
            matrix_id: seq_id,
            b: b.clone(),
            deadline: Some(Duration::from_secs(60)),
        }) {
            Ok(SpmmOutcome::Done(resp)) => {
                assert_eq!(resp.batch_size, 1);
                assert_eq!(resp.counters.sanitizer_violations, 0);
                reference.push(resp.out.to_f32_vec());
            }
            other => panic!("sequential request failed: {other:?}"),
        }
    }
    seq.shutdown();

    // Batched: enqueue everything before the workers drain the queue so
    // micro-batches actually form, then wait on all tickets.
    let batched =
        ServeEngine::start(EngineConfig { workers: 2, max_batch: 8, ..EngineConfig::default() });
    let bat_id = batched.register_matrix("bat", csr.clone()).expect("registered").id;
    let tickets: Vec<_> = operands
        .iter()
        .map(|b| {
            batched
                .submit(SpmmRequest {
                    tenant: "bat".to_string(),
                    matrix_id: bat_id,
                    b: b.clone(),
                    deadline: Some(Duration::from_secs(60)),
                })
                .unwrap_or_else(|e| panic!("submit failed: {e}"))
        })
        .collect();
    let mut max_batch_seen = 0;
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            SpmmOutcome::Done(resp) => {
                assert_eq!(resp.counters.sanitizer_violations, 0, "request {i}");
                max_batch_seen = max_batch_seen.max(resp.batch_size);
                let got: Vec<u32> = resp.out.to_f32_vec().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = reference[i].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "request {i} diverged from the sequential reference");
            }
            other => panic!("batched request {i} failed: {other:?}"),
        }
    }
    batched.shutdown();
    // The engine's own sanitizer totals must also be clean.
    let metrics = batched.metrics_json();
    assert!(metrics.contains("\"sanitizer_violations\":0"), "{metrics}");
    assert!(max_batch_seen >= 1);
}

/// Full TCP round trip on loopback: load, repeated SpMM showing the
/// cache warming up, metrics, and an acknowledged drain/shutdown.
#[test]
fn tcp_round_trip_on_loopback() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // Strict bit-determinism across every response is a classic-path
        // property: the pipelined cold path answers the first miss with
        // the FALLBACK variant and upgrades to the tuned one in the
        // background, which legitimately changes rounding. The pipelined
        // path has its own equivalence tests (`pipeline_chaos.rs`).
        engine: EngineConfig { workers: 2, pipeline: false, ..EngineConfig::default() },
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());

    let mut client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(96, 80, 700, 5));
    let loaded =
        client.load_matrix("tenant-a", &csr).unwrap_or_else(|e| panic!("load failed: {e}"));
    assert_eq!(loaded.nnz as usize, csr.nnz());

    let n = 16;
    let b: Vec<f32> = (0..csr.cols() * n).map(|i| (i % 5) as f32).collect();
    let mut last = None;
    let mut hits = 0;
    for _ in 0..4 {
        let resp = client
            .spmm("tenant-a", loaded.matrix_id, csr.cols(), n, &b, 60_000)
            .unwrap_or_else(|e| panic!("spmm failed: {e}"));
        assert_eq!(resp.rows, csr.rows());
        assert_eq!(resp.n, n);
        if resp.cache_hit {
            hits += 1;
        }
        if let Some(prev) = &last {
            assert_eq!(prev, &resp.out, "served output must be deterministic");
        }
        last = Some(resp.out);
    }
    assert!(hits >= 3, "expected the warm path after the first request, saw {hits} hits");

    // Dimension mismatch is a clean server-side error, not a dropped
    // connection: the operand is well-formed on the wire but has the
    // wrong number of rows for the loaded matrix.
    let bad_b = vec![0.0f32; (csr.cols() + 1) * n];
    let err = client.spmm("tenant-a", loaded.matrix_id, csr.cols() + 1, n, &bad_b, 0);
    assert!(err.is_err(), "mismatched operand must be refused");

    let metrics = client.metrics().unwrap_or_else(|e| panic!("metrics failed: {e}"));
    assert!(metrics.contains("\"cache\""), "{metrics}");
    assert!(metrics.contains("tenant-a"), "{metrics}");

    client.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}

/// A ~30-byte `Load` frame declaring `u32::MAX` rows with zero entries
/// must be refused with `BadRequest` before the server allocates
/// anything, and the connection must stay usable (regression test for
/// the remote-OOM via unvalidated dimensions).
#[test]
fn oversized_load_dimensions_are_refused_without_allocation() {
    let server =
        Server::bind(&ServerConfig::default()).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let req = Request::Load {
        tenant: "attacker".to_string(),
        rows: u32::MAX,
        cols: 1,
        entries: Vec::new(),
    };
    write_frame(&mut stream, &req.frame().expect("encode")).expect("write");
    let frame = read_frame(&mut stream).expect("read").expect("response frame");
    match Response::decode(&frame).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The server survived and the same connection still answers.
    write_frame(&mut stream, &Request::Ping.frame().expect("encode")).expect("write");
    let frame = read_frame(&mut stream).expect("read").expect("pong frame");
    assert_eq!(Response::decode(&frame).expect("decode"), Response::Pong);

    write_frame(&mut stream, &Request::Shutdown.frame().expect("encode")).expect("write");
    let _ = read_frame(&mut stream);
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}

/// A peer that connects and then goes silent must not block graceful
/// shutdown: `Server::run` shuts the read half of every tracked
/// connection at drain time, so the idle handler exits and the join
/// completes (regression test for the shutdown hang).
#[test]
fn idle_connection_does_not_block_shutdown() {
    let server =
        Server::bind(&ServerConfig::default()).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());

    // An idle peer: connects, sends nothing, and stays open.
    let idle = std::net::TcpStream::connect(addr).expect("idle connect");

    let mut client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    client.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));

    // With the idle peer still open, run() must return anyway.
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
    drop(idle);
}

/// A peer that never accepts must fail the dial within the configured
/// connect timeout, not the kernel's minutes-long SYN retry schedule
/// (regression test for the unbounded `TcpStream::connect` a fan-out
/// router cannot afford). A listener that never calls `accept` still
/// completes handshakes from its kernel backlog, so the test first
/// saturates the backlog with held connections; once it is full the
/// kernel drops further SYNs and the dial genuinely hangs.
#[test]
fn connect_timeout_bounds_the_dial() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    // Fill the accept queue (backlog is typically 128; stop at the
    // first dial the kernel no longer answers).
    let budget = Duration::from_millis(250);
    let mut held = Vec::new();
    let mut saturated = None;
    for _ in 0..1024 {
        let t0 = std::time::Instant::now();
        match std::net::TcpStream::connect_timeout(&addr, budget) {
            Ok(s) => held.push(s),
            Err(_) => {
                saturated = Some(t0.elapsed());
                break;
            }
        }
    }
    let elapsed = saturated.expect("backlog never saturated; cannot exercise the timeout");
    assert!(
        elapsed < budget + Duration::from_secs(2),
        "raw dial took {elapsed:?} against a {budget:?} timeout"
    );

    // The client's dial path must honor the same bound.
    let t0 = std::time::Instant::now();
    let result = ServeClient::connect_with_timeout(addr, budget);
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "a full backlog must not accept");
    assert!(
        elapsed < budget + Duration::from_secs(2),
        "client dial took {elapsed:?}; the {budget:?} connect timeout did not bound it"
    );
    drop(held);
    drop(listener);
}

/// The metrics document leads with a `server` section carrying the
/// listen address and the bind-time epoch, so a router (or run script)
/// can tell a measured process from a silently restarted one.
#[test]
fn metrics_carry_server_identity() {
    let server =
        Server::bind(&ServerConfig::default()).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let epoch = server.start_epoch();
    assert!(epoch > 0, "bind-time epoch must be set");
    let server_thread = thread::spawn(move || server.run());

    let mut client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    let metrics = client.metrics().unwrap_or_else(|e| panic!("metrics failed: {e}"));
    assert!(
        metrics
            .starts_with(&format!("{{\"server\":{{\"addr\":\"{addr}\",\"start_epoch\":{epoch}}}")),
        "metrics must lead with the server section: {metrics}"
    );

    client.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}
