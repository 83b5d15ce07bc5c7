//! A GNN inference is a job on the engine's one executor, so what the
//! queue guarantees an SpMM it guarantees an inference — by reuse, which
//! is what these tests pin: admission control, deadline shedding before
//! any work, panic isolation, tenant accounting, drain on shutdown. Plus
//! the registry side of the same unification: evicting a graph releases
//! the models bound to it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fs_gnn::{normalize_adjacency, GcnModel, GnnWeights};
use fs_matrix::gen::{random_uniform, sbm, SbmConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::engine::Ticket;
use fs_serve::protocol::ErrorCode;
use fs_serve::{
    ClientError, EngineConfig, GnnConfig, GnnError, GnnInferRequest, ServeClient, ServeEngine,
    Server, ServerConfig, SpmmOutcome, SpmmRequest,
};

const TENANT: &str = "t";

struct Fixture {
    adj: CsrMatrix<f32>,
    features: DenseMatrix<f32>,
    weights: GnnWeights,
}

fn fixture() -> Fixture {
    let ds = sbm(SbmConfig { nodes: 96, feature_dim: 16, ..Default::default() }, 17);
    Fixture {
        adj: normalize_adjacency(&ds.adjacency),
        features: ds.features,
        weights: GcnModel::new(&[16, 12, ds.classes], 0.01, 5).export_weights(),
    }
}

/// One worker, and a cold path that pays tune + translate up front, so
/// [`hold_worker`]'s job keeps that worker busy for a good while.
fn one_worker(queue_capacity: usize) -> EngineConfig {
    EngineConfig { workers: 1, queue_capacity, pipeline: false, ..EngineConfig::default() }
}

/// Register the fixture's graph and model; returns the model id.
fn register(engine: &ServeEngine, fx: &Fixture) -> u64 {
    let graph = engine.register_matrix(TENANT, fx.adj.clone()).expect("graph registered");
    engine.gnn_register(TENANT, graph.id, fx.weights.clone()).expect("model registered").id
}

fn request(model_id: u64, fx: &Fixture, deadline: Option<Duration>) -> GnnInferRequest {
    GnnInferRequest {
        tenant: TENANT.to_string(),
        model_id,
        precision: 2,
        deadline,
        node_ids: Vec::new(),
        features: fx.features.clone(),
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        thread::yield_now();
    }
}

/// Keep the engine's single worker busy: a cold SpMM on a matrix big
/// enough to run for far longer than it takes to queue what a test
/// queues behind it. Returns once the worker has taken the job.
fn hold_worker(engine: &ServeEngine) -> Ticket {
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(1024, 1024, 120_000, 9));
    let info = engine.register_matrix("hold", csr).expect("hold matrix registered");
    let ticket = engine
        .submit(SpmmRequest {
            tenant: "hold".to_string(),
            matrix_id: info.id,
            b: DenseMatrix::from_fn(1024, 512, |r, c| ((r + c) % 7) as f32 * 0.125),
            deadline: Some(Duration::from_secs(120)),
        })
        .expect("hold job admitted");
    wait_until("the worker takes the hold job", || engine.queue_len() == 0);
    ticket
}

/// Whether any inference has got as far as probing the embedding cache.
fn embedding_cache_was_probed(engine: &ServeEngine) -> bool {
    let metrics = engine.metrics_json();
    let gnn = metrics.find("\"gnn\":{").map(|i| &metrics[i..]).expect("gnn section");
    !(gnn.contains("\"hits\":0") && gnn.contains("\"misses\":0"))
}

fn infer_over_tcp(
    client: &mut ServeClient,
    model_id: u64,
    fx: &Fixture,
) -> Result<fs_serve::GnnInferResult, ClientError> {
    let f = &fx.features;
    client.gnn_infer(TENANT, model_id, 2, 60_000, &[], f.rows(), f.cols(), f.as_slice())
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"))
}

/// A running server, its in-process engine handle, and the closure that
/// shuts it down cleanly.
fn serve(cfg: EngineConfig) -> (Arc<ServeEngine>, SocketAddr, impl FnOnce()) {
    let server = Server::bind(&ServerConfig { engine: cfg, ..ServerConfig::default() })
        .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let engine = Arc::clone(server.engine());
    let running = thread::spawn(move || server.run());
    let stop = move || {
        connect(addr).shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
        running
            .join()
            .unwrap_or_else(|_| panic!("server thread panicked"))
            .unwrap_or_else(|e| panic!("server run failed: {e}"));
    };
    (engine, addr, stop)
}

/// (a) A queued inference past its deadline is shed at dequeue: the
/// forward pass never runs, and the shed is on the tenant's books.
#[test]
fn an_inference_past_its_deadline_is_shed_before_its_forward_pass() {
    let fx = fixture();
    let engine = ServeEngine::start(one_worker(16));
    let model_id = register(&engine, &fx);
    let hold = hold_worker(&engine);
    let err = engine
        .gnn_infer(request(model_id, &fx, Some(Duration::from_millis(1))))
        .expect_err("the hold job outlasts a 1 ms deadline");
    assert_eq!(err, GnnError::DeadlineExceeded);
    assert!(
        !embedding_cache_was_probed(&engine),
        "a shed inference must not have reached the cache probe"
    );
    assert_eq!(engine.tenant_stats(TENANT).timed_out, 1);
    assert!(matches!(hold.wait(), SpmmOutcome::Done(_)));
    engine.shutdown();
}

/// (b) Admission control: with room for one queued job, a second queued
/// inference is rejected — `QueueFull` on the wire.
#[test]
fn a_full_queue_rejects_an_inference_over_tcp() {
    let fx = fixture();
    let (engine, addr, stop) = serve(one_worker(1));
    let model_id = register(&engine, &fx);
    let hold = hold_worker(&engine);
    thread::scope(|scope| {
        let first = scope.spawn(|| infer_over_tcp(&mut connect(addr), model_id, &fx));
        wait_until("the first inference is queued", || engine.queue_len() == 1);
        let err = infer_over_tcp(&mut connect(addr), model_id, &fx).expect_err("the queue is full");
        assert!(
            matches!(err, ClientError::Server { code: ErrorCode::QueueFull, .. }),
            "expected QueueFull, got {err}"
        );
        assert!(matches!(hold.wait(), SpmmOutcome::Done(_)));
        first.join().expect("first client").expect("the queued inference is served");
    });
    assert_eq!(engine.tenant_stats(TENANT).rejected, 1);
    stop();
}

/// (c) A panic inside an inference is caught at the batch boundary:
/// answered `Internal`, counted, and neither the worker nor the
/// connection it arrived on is lost.
#[test]
fn a_panicking_inference_is_isolated_and_its_connection_survives() {
    let fx = fixture();
    let (engine, addr, stop) = serve(one_worker(16));
    let mut client = connect(addr);
    let model_id = register(&engine, &fx);
    engine.poison_next_gnn_infer();
    let err = infer_over_tcp(&mut client, model_id, &fx).expect_err("the poisoned job panics");
    assert!(
        matches!(err, ClientError::Server { code: ErrorCode::Internal, .. }),
        "expected Internal, got {err}"
    );
    assert_eq!(engine.worker_panics(), 1);
    assert_eq!(engine.tenant_stats(TENANT).failed, 1);
    let ok = infer_over_tcp(&mut client, model_id, &fx).expect("same engine, same connection");
    assert_eq!(ok.rows, fx.adj.rows());
    stop();
}

/// (d) Inferences land in their tenant's stats like any other job.
#[test]
fn inferences_are_accounted_to_their_tenant() {
    let fx = fixture();
    let engine = ServeEngine::start(one_worker(16));
    let model_id = register(&engine, &fx);
    for _ in 0..3 {
        engine.gnn_infer(request(model_id, &fx, None)).expect("served");
    }
    let stats = engine.tenant_stats(TENANT);
    assert_eq!((stats.submitted, stats.completed, stats.failed), (3, 3, 0));
    // A request that fails validation inside the job is a failed job.
    let mut bad = request(model_id, &fx, None);
    bad.precision = 9;
    assert!(matches!(engine.gnn_infer(bad), Err(GnnError::BadRequest(_))));
    assert_eq!(engine.tenant_stats(TENANT).failed, 1);
    engine.shutdown();
}

/// (e) Shutdown drains queued inferences: every caller gets its answer.
#[test]
fn shutdown_answers_every_queued_inference() {
    let fx = fixture();
    let engine = ServeEngine::start(one_worker(16));
    let model_id = register(&engine, &fx);
    let hold = hold_worker(&engine);
    thread::scope(|scope| {
        let callers: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| engine.gnn_infer(request(model_id, &fx, None))))
            .collect();
        wait_until("all three inferences are queued", || engine.queue_len() == 3);
        engine.shutdown();
        for caller in callers {
            caller.join().expect("caller thread").expect("a queued inference is drained, not lost");
        }
    });
    assert!(matches!(hold.wait(), SpmmOutcome::Done(_)));
    assert!(matches!(engine.gnn_infer(request(model_id, &fx, None)), Err(GnnError::Internal(_))));
}

/// Evicting a graph removes the models bound to it — matrix ids are
/// never reused, so they could only ever answer `UnknownGraph` — and
/// releases their share of the model budget.
#[test]
fn evicting_a_graph_releases_its_models_budget() {
    let fx = fixture();
    let engine = ServeEngine::start(EngineConfig {
        gnn: GnnConfig { max_models: 2, ..GnnConfig::default() },
        ..EngineConfig::default()
    });
    for round in 0..3 {
        let graph = engine.register_matrix(TENANT, fx.adj.clone()).expect("graph registered");
        for _ in 0..2 {
            engine
                .gnn_register(TENANT, graph.id, fx.weights.clone())
                .unwrap_or_else(|e| panic!("round {round}: the evicted models still count: {e}"));
        }
        assert_eq!(engine.gnn_model_stats(), (2, 2 * fx.weights.weight_bytes()));
        assert!(engine.evict_matrix(graph.id));
        assert_eq!(engine.gnn_model_stats(), (0, 0));
    }
    engine.shutdown();
}
