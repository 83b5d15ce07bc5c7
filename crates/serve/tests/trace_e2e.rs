//! End-to-end tracing tests for the serving stack.
//!
//! Own test binary: an armed tracer is process-global state, so these
//! tests hold a [`fs_trace::TraceScope`] (which also serializes them
//! against each other) and must not share a process with suites that
//! assume tracing is disarmed.

use std::time::Duration;

use fs_chaos::{ChaosScope, FaultPlan};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::{
    EngineConfig, ServeClient, ServeEngine, Server, ServerConfig, SpmmOutcome, SpmmRequest,
};
use fs_trace::TraceScope;

const SERVE_SITES: [&str; 5] =
    ["serve.decode", "serve.queue", "serve.batch", "serve.execute", "serve.encode"];

/// The serving smoke with tracing armed: drive real TCP traffic, fetch
/// the trace over the wire, and check that both exports are non-empty
/// and that every serve-stage site reports a full quantile summary.
#[test]
fn armed_server_smoke_exports_every_serve_stage() {
    let _trace = TraceScope::armed();
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig { workers: 2, ..EngineConfig::default() },
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(128, 128, 2000, 11));
    let b: Vec<f32> = (0..128 * 16).map(|i| ((i % 9) as f32 - 4.0) * 0.5).collect();
    let (prometheus, chrome) = {
        let mut client = ServeClient::connect(addr).expect("connect");
        let loaded = client.load_matrix("t0", &csr).expect("load");
        for _ in 0..12 {
            let resp = client.spmm("t0", loaded.matrix_id, 128, 16, &b, 0).expect("spmm");
            assert_eq!(resp.rows, 128);
        }
        let exports = client.trace().expect("trace fetch");
        client.shutdown().expect("shutdown");
        exports
    };
    server_thread.join().expect("server thread").expect("server run");

    // Every serve-stage site carries a non-zero count and all three
    // quantiles in the Prometheus text.
    let counts = fs_trace::export::scrape_prometheus_counts(&prometheus);
    for stage in SERVE_SITES {
        let (_, count) = counts
            .iter()
            .find(|(site, _)| *site == stage)
            .unwrap_or_else(|| panic!("{stage} missing from scrape"));
        assert!(*count > 0, "{stage} recorded no spans:\n{prometheus}");
        for q in ["0.5", "0.95", "0.99"] {
            let line = format!("fs_span_seconds{{site=\"{stage}\",quantile=\"{q}\"}}");
            assert!(prometheus.contains(&line), "missing `{line}`:\n{prometheus}");
        }
    }
    // The chrome timeline has real duration events for the eventful
    // serve stages plus the closing span_counts counter event.
    assert!(chrome.contains("\"name\":\"serve.execute\""), "no serve.execute events:\n{chrome}");
    assert!(chrome.contains("\"name\":\"span_counts\""), "no span_counts event:\n{chrome}");
}

/// The determinism regression from the ISSUE: an armed tracer under a
/// seeded chaos soak replays identical span counts from the seed alone.
/// Times vary run to run; counts must not.
#[test]
fn chaos_soak_replays_identical_span_counts() {
    let plan: FaultPlan = "seed=99;frag-bit=0.001".parse().expect("plan parses");
    let counts_a = traced_soak(&plan, 200);
    let counts_b = traced_soak(&plan, 200);
    assert_eq!(counts_a, counts_b, "span counts must replay from the plan string");
    let batches =
        counts_a.iter().find(|(site, _)| *site == "serve.batch").map(|(_, n)| *n).unwrap_or(0);
    assert_eq!(batches, 200, "one batch span per sequential request");
}

/// Single-worker, unbatched, breaker-free soak under `plan` with the
/// tracer armed; returns the registry's span counts after the engine
/// has drained (mirrors the chaos_e2e replay harness).
fn traced_soak(plan: &FaultPlan, requests: usize) -> Vec<(&'static str, u64)> {
    // Trace scope first: it is what serializes this test against the
    // chaos-free smoke test above, and the plan is process-global — one
    // installed while that test still runs would have its kernels claim
    // draw indices, shifting this soak's fault sequence but not its
    // replay's.
    let _trace = TraceScope::armed();
    let _chaos = ChaosScope::install(plan.clone());
    let e = ServeEngine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        verify: true,
        breaker_threshold: u32::MAX,
        ..EngineConfig::default()
    });
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(96, 96, 800, 3));
    let info = e.register_matrix("t0", csr).expect("registered");
    let b = DenseMatrix::from_fn(96, 16, |r, c| ((r + c) % 5) as f32 * 0.25);
    for i in 0..requests {
        let outcome = e.spmm_blocking(SpmmRequest {
            tenant: "t0".to_string(),
            matrix_id: info.id,
            b: b.clone(),
            deadline: Some(Duration::from_secs(60)),
        });
        assert!(matches!(outcome, Ok(SpmmOutcome::Done(_))), "request {i}: {outcome:?}");
    }
    // Snapshot only after the workers have drained and joined — the
    // last batch span drops on a worker thread.
    e.shutdown();
    fs_trace::snapshot().span_counts()
}
