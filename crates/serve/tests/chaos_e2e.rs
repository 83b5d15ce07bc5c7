//! Chaos soaks for the serving stack: injected faults must degrade
//! service (errors, retries, fallbacks) but never corrupt it, and
//! kernel-site plans must replay identical injection counters from the
//! seed string alone.
//!
//! Own test binary: an installed fault plan is process-global state, so
//! these tests must never share a process with the regular suites. Every
//! test here holds a [`ChaosScope`] — including the chaos-free ones —
//! because the scope also serializes the tests against each other;
//! unscoped traffic racing a scoped test would consume draw indices and
//! break replay.

use std::time::{Duration, Instant};

use flashsparse::{outputs_match, DEFAULT_TOLERANCE};
use fs_chaos::{ChaosScope, FaultPlan, FaultSite};
use fs_gnn::{normalize_adjacency, GcnModel};
use fs_matrix::gen::{random_uniform, sbm, SbmConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::loadgen::{run, GnnSpec, LoadgenConfig, MatrixSpec};
use fs_serve::{
    ClientError, EngineConfig, GnnInferRequest, ServeClient, ServeEngine, Server, ServerConfig,
    SpmmOutcome, SpmmRequest,
};

/// The ISSUE's acceptance soak, engine-level: a seeded fragment-bit plan
/// at rate 1e-3 over 200 identical requests on a single worker. Every
/// response must verify against the scalar reference (zero wrong), and
/// re-running the identical plan must reproduce identical fault
/// counters, resilience totals, and output bits.
#[test]
fn seeded_soak_is_wrong_free_and_replays_identically() {
    let plan: FaultPlan = "seed=99;frag-bit=0.001".parse().expect("plan parses");
    let (outs_a, report_a, stats_a) = engine_soak(&plan, 200);
    let (outs_b, report_b, stats_b) = engine_soak(&plan, 200);
    assert_eq!(report_a, report_b, "fault counters must replay from the plan string");
    assert_eq!(stats_a, stats_b, "resilience totals must replay too");
    assert_eq!(outs_a, outs_b, "delivered bits must replay too");
    let (evaluated, injected) = report_a.site(FaultSite::FragBitFlip);
    assert!(evaluated > 1_000, "200 requests drive thousands of MMA draws, saw {evaluated}");
    assert!(injected > 0, "rate 1e-3 over {evaluated} evaluations should fire");
}

/// Run `requests` identical requests through a verifying single-worker
/// engine under `plan`; returns (output bits, fault report, resilience
/// stats), asserting zero wrong responses along the way.
fn engine_soak(
    plan: &FaultPlan,
    requests: usize,
) -> (Vec<Vec<u32>>, fs_chaos::FaultReport, (u64, u64, u64, u64)) {
    let _scope = ChaosScope::install(plan.clone());
    let e = ServeEngine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        verify: true,
        // The breaker bypass decision depends on wall-clock cooldowns;
        // disable it so the soak stays a pure function of the plan.
        breaker_threshold: u32::MAX,
        ..EngineConfig::default()
    });
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(96, 96, 800, 3));
    let info = e.register_matrix("t0", csr.clone()).expect("registered");
    let b = DenseMatrix::from_fn(96, 16, |r, c| ((r + c) % 5) as f32 * 0.25);
    let reference = csr.spmm_reference(&b);
    let mut outs = Vec::with_capacity(requests);
    for i in 0..requests {
        let outcome = e.spmm_blocking(SpmmRequest {
            tenant: "t0".to_string(),
            matrix_id: info.id,
            b: b.clone(),
            deadline: Some(Duration::from_secs(60)),
        });
        match outcome {
            Ok(SpmmOutcome::Done(resp)) => {
                assert!(resp.verified, "request {i}");
                assert!(
                    outputs_match(&resp.out, &reference, DEFAULT_TOLERANCE),
                    "request {i} delivered a wrong response (level {:?})",
                    resp.fallback_level
                );
                outs.push(resp.out.to_f32_vec().iter().map(|v| v.to_bits()).collect());
            }
            other => panic!("request {i} failed: {other:?}"),
        }
    }
    let report = fs_chaos::report();
    let stats = e.resilience_stats();
    e.shutdown();
    (outs, report, stats)
}

/// Full-stack soak over TCP: worker kills, stalls, frame corruption and
/// truncation all active at once. Clients retry with backoff and
/// reconnect; the contract is completed > 0 and wrong == 0 — errors are
/// expected, silent corruption is not. (Transport-layer plans replay
/// statistically, not bit-exactly: thread scheduling reorders draws.)
#[test]
fn tcp_soak_with_kills_and_frame_faults_serves_no_wrong_bytes() {
    let plan: FaultPlan = "seed=7;frag-bit=0.001;worker-kill=0.02;worker-stall=0.05;\
                           frame-corrupt=0.05;frame-truncate=0.02;stall-ms=5"
        .parse()
        .expect("plan parses");
    let _scope = ChaosScope::install(plan);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig { workers: 2, verify: true, ..EngineConfig::default() },
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let report = run(&LoadgenConfig {
        addr,
        concurrency: 2,
        requests: 120,
        n: 16,
        matrix: MatrixSpec::Uniform { rows: 128, cols: 128, nnz: 2000 },
        chaos: true,
        ..LoadgenConfig::default()
    })
    .unwrap_or_else(|e| panic!("loadgen failed: {e}"));

    assert_eq!(report.wrong, 0, "chaos must never corrupt a response: {}", report.to_json());
    assert!(
        report.completed >= 60,
        "retries should recover most of the 120 requests: {}",
        report.to_json()
    );

    let mut c = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    c.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}

/// GNN inference under a seeded kernel-fault plan: the double-execution
/// verifier absorbs injected fragment faults (retrying, never serving a
/// corrupt score), and re-running the identical plan must reproduce
/// identical response bytes, cache-hit flags, and fault counters — each
/// inference is one job on a single-worker engine and the one client
/// waits for its answer before sending the next, so the soak consumes
/// draw indices (the worker's per-job kill/stall draws included) in a
/// replayable order.
#[test]
fn seeded_gnn_soak_replays_identical_response_bytes() {
    let plan: FaultPlan = "seed=123;frag-bit=0.001".parse().expect("plan parses");
    let (outs_a, report_a) = gnn_soak(&plan, 40);
    let (outs_b, report_b) = gnn_soak(&plan, 40);
    assert_eq!(report_a, report_b, "fault counters must replay from the plan string");
    assert_eq!(outs_a, outs_b, "served GNN response bytes must replay too");
    let (evaluated, _) = report_a.site(FaultSite::FragBitFlip);
    assert!(evaluated > 0, "the forward passes must consult the plan");
    // Variant cycling means later rounds hit the embedding cache: hits
    // replay the miss bytes without consuming any fault draws.
    assert!(outs_a.iter().any(|o| o.starts_with("hit=true")), "soak never hit the cache");
}

/// Run `requests` sequential FP16 GNN inferences (cycling 3 feature
/// variants) through a verifying engine under `plan`; returns one
/// outcome string per request plus the fault report.
fn gnn_soak(plan: &FaultPlan, requests: usize) -> (Vec<String>, fs_chaos::FaultReport) {
    let _scope = ChaosScope::install(plan.clone());
    let e = ServeEngine::start(EngineConfig {
        workers: 1,
        verify: true,
        // Wall-clock breaker cooldowns would make the soak nondeterministic.
        breaker_threshold: u32::MAX,
        ..EngineConfig::default()
    });
    let ds = sbm(
        SbmConfig { nodes: 96, feature_dim: 16, feature_signal: 1.5, ..Default::default() },
        11,
    );
    let graph = e.register_matrix("t", normalize_adjacency(&ds.adjacency)).expect("graph");
    let weights = GcnModel::new(&[16, 12, ds.classes], 0.01, 3).export_weights();
    let info = e.gnn_register("t", graph.id, weights).expect("model");
    let variants: Vec<DenseMatrix<f32>> = (0..3)
        .map(|v| DenseMatrix::from_fn(96, 16, |r, c| ds.features.get(r, c) + v as f32 * 0.001))
        .collect();
    let mut outs = Vec::with_capacity(requests);
    for i in 0..requests {
        let resp = e.gnn_infer(GnnInferRequest {
            tenant: "t".to_string(),
            model_id: info.id,
            precision: 2,
            deadline: None,
            node_ids: Vec::new(),
            features: variants[i % variants.len()].clone(),
        });
        // Errors (the verifier giving up) are tolerated but must replay.
        outs.push(match resp {
            Ok(r) => format!(
                "hit={} bits={:?}",
                r.cache_hit,
                r.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            ),
            Err(err) => format!("err={err}"),
        });
    }
    let report = fs_chaos::report();
    e.shutdown();
    (outs, report)
}

/// Full-stack GNN soak over TCP under transport faults: frame
/// corruption, truncation, worker kills and stalls. Clients retry and
/// reconnect; every completed response is bit-compared against the
/// offline fs-gnn forward, so the contract is completed > 0 and
/// wrong == 0. (No kernel faults here: the loadgen computes its
/// reference in-process, and a frag-bit plan would corrupt the
/// reference itself, not just the server under test.)
#[test]
fn tcp_gnn_soak_with_transport_faults_serves_no_wrong_scores() {
    let plan: FaultPlan = "seed=21;worker-kill=0.02;worker-stall=0.05;\
                           frame-corrupt=0.05;frame-truncate=0.02;stall-ms=5"
        .parse()
        .expect("plan parses");
    let _scope = ChaosScope::install(plan);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig { workers: 2, verify: true, ..EngineConfig::default() },
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let report = run(&LoadgenConfig {
        addr,
        concurrency: 2,
        requests: 60,
        chaos: true,
        gnn: Some(GnnSpec {
            nodes: 96,
            feature_dim: 16,
            hidden: 12,
            train_epochs: 3,
            precision: 2,
            variants: 2,
        }),
        ..LoadgenConfig::default()
    })
    .unwrap_or_else(|e| panic!("loadgen failed: {e}"));

    assert_eq!(report.mode, "gnn");
    assert_eq!(report.wrong, 0, "chaos must never corrupt a served score: {}", report.to_json());
    // Inferences are jobs on the worker pool, so the plan's worker sites
    // are drawn for them (a model registration is not a job).
    let faults = fs_chaos::report();
    for site in [FaultSite::WorkerKill, FaultSite::WorkerStall] {
        let (evaluated, _) = faults.site(site);
        assert!(evaluated > 0, "{site:?} was never evaluated for a GNN job");
    }
    assert!(
        report.completed >= 30,
        "retries should recover most of the 60 requests: {}",
        report.to_json()
    );

    let mut c = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    c.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}

/// Regression test for the client socket timeouts: a listener that
/// accepts and then never answers must surface as a prompt I/O error,
/// not a forever-hung client.
#[test]
fn silent_listener_times_out_instead_of_hanging() {
    // Zero-rate plan: chaos-free, the scope only serializes this test
    // against the soaks above.
    let _scope = ChaosScope::install(FaultPlan::new(0));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Accept, read nothing, answer nothing, hang up after a while.
        let conn = listener.accept();
        std::thread::sleep(Duration::from_millis(1500));
        drop(conn);
    });

    let mut client = ServeClient::connect(addr).expect("connect succeeds (SYN is accepted)");
    client.set_io_timeouts(Some(Duration::from_millis(250))).expect("timeouts");
    let t0 = Instant::now();
    let err = client.ping().expect_err("a silent listener must not produce a pong");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "ping must fail via the read timeout, not hang: {:?}",
        t0.elapsed()
    );
    assert!(matches!(err, ClientError::Io(_)), "expected an I/O timeout, got {err:?}");
    let _ = hold.join();
}
