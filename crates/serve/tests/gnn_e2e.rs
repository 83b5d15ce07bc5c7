//! End-to-end GNN inference serving: a trained model registered over
//! TCP and served via `REQ_GNN_INFER` must reproduce the offline fs-gnn
//! forward pass **bit for bit** at every precision, for both GCN and
//! AGNN, on the cache-miss and the cache-hit path alike.

use std::thread;
use std::time::Duration;

use fs_gnn::nn::cross_entropy;
use fs_gnn::{normalize_adjacency, AgnnModel, GcnModel, GnnWeights, SparseOps};
use fs_matrix::gen::{sbm, SbmConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::{
    backend_for_precision, EngineConfig, GnnError, GnnInferRequest, ServeClient, ServeEngine,
    Server, ServerConfig, SpmmOutcome, SpmmRequest,
};
use fs_tcu::GpuSpec;

struct Fixture {
    adj: CsrMatrix<f32>,
    features: DenseMatrix<f32>,
    classes: usize,
}

fn fixture() -> Fixture {
    let ds = sbm(
        SbmConfig { nodes: 96, feature_dim: 16, feature_signal: 1.5, ..Default::default() },
        17,
    );
    Fixture { adj: normalize_adjacency(&ds.adjacency), features: ds.features, classes: ds.classes }
}

/// Briefly train a GCN so the registered weights are learned ones, not
/// just the init (training exercises the same kernels inference will).
fn trained_gcn(fx: &Fixture) -> GnnWeights {
    let ds = sbm(
        SbmConfig { nodes: 96, feature_dim: 16, feature_signal: 1.5, ..Default::default() },
        17,
    );
    let ops = SparseOps::new(fs_gnn::GnnBackend::CudaFp32, GpuSpec::RTX4090);
    let mut model = GcnModel::new(&[fx.features.cols(), 12, fx.classes], 0.01, 5);
    for _ in 0..5 {
        let logits = model.forward(&ops, &fx.adj, &fx.features);
        let (_, grad) = cross_entropy(&logits, &ds.labels, &ds.train_idx);
        model.backward_and_step(&ops, &fx.adj, &grad);
    }
    model.export_weights()
}

fn serve_and_check(weights: GnnWeights, fx: &Fixture) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig { workers: 1, ..EngineConfig::default() },
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());

    let mut client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    let loaded = client.load_matrix("t", &fx.adj).unwrap_or_else(|e| panic!("load failed: {e}"));
    let (kind, wire, scalars) = weights.export_wire();
    let wire: Vec<(u32, u32, Vec<f32>)> =
        wire.into_iter().map(|(r, c, d)| (r as u32, c as u32, d)).collect();
    let (model_id, weight_bytes, layers) = client
        .gnn_register("t", loaded.matrix_id, kind, wire, scalars)
        .unwrap_or_else(|e| panic!("gnn_register failed: {e}"));
    assert_eq!(weight_bytes as usize, weights.weight_bytes());
    assert_eq!(layers as usize, weights.num_layers());

    for precision in [0u8, 1, 2] {
        let backend = backend_for_precision(precision).expect("precision maps");
        let ops = SparseOps::new(backend, GpuSpec::RTX4090);
        let offline = weights.forward(&ops, &fx.adj, &fx.features);
        let want: Vec<u32> = offline.as_slice().iter().map(|v| v.to_bits()).collect();

        // Miss path: full server-side forward pass, layer-timed.
        let miss = client
            .gnn_infer(
                "t",
                model_id,
                precision,
                60_000,
                &[],
                fx.features.rows(),
                fx.features.cols(),
                fx.features.as_slice(),
            )
            .unwrap_or_else(|e| panic!("infer (precision {precision}) failed: {e}"));
        assert!(!miss.cache_hit, "first request at precision {precision} must miss");
        assert_eq!(miss.rows, fx.adj.rows());
        assert_eq!(miss.classes, fx.classes);
        assert_eq!(miss.layer_micros.len(), weights.num_layers());
        let got: Vec<u32> = miss.scores.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got,
            want,
            "{} served logits diverge from offline fs-gnn at precision {precision}",
            weights.kind()
        );

        // Hit path: identical bytes, zero layer time.
        let hit = client
            .gnn_infer(
                "t",
                model_id,
                precision,
                60_000,
                &[],
                fx.features.rows(),
                fx.features.cols(),
                fx.features.as_slice(),
            )
            .unwrap_or_else(|e| panic!("cached infer failed: {e}"));
        assert!(hit.cache_hit, "repeat request at precision {precision} must hit");
        assert!(hit.layer_micros.iter().all(|&us| us == 0));
        let hit_bits: Vec<u32> = hit.scores.iter().map(|v| v.to_bits()).collect();
        assert_eq!(hit_bits, want, "cache hit must replay the miss bytes exactly");

        // Mini-batch: scores for a node subset are the matching rows of
        // the full-graph logits, in request order.
        let nodes = [5u32, 0, 63];
        let some = client
            .gnn_infer(
                "t",
                model_id,
                precision,
                60_000,
                &nodes,
                fx.features.rows(),
                fx.features.cols(),
                fx.features.as_slice(),
            )
            .unwrap_or_else(|e| panic!("mini-batch infer failed: {e}"));
        assert_eq!(some.rows as usize, nodes.len());
        for (slot, &node) in nodes.iter().enumerate() {
            let got = &some.scores[slot * fx.classes..(slot + 1) * fx.classes];
            let exp = &offline.as_slice()[node as usize * fx.classes..][..fx.classes];
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                exp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "node {node} at precision {precision}"
            );
        }
    }

    // The metrics document carries the gnn section with live counters.
    let metrics = client.metrics().unwrap_or_else(|e| panic!("metrics failed: {e}"));
    assert!(metrics.contains("\"gnn\":{"), "{metrics}");
    assert!(metrics.contains("\"models\":1"), "{metrics}");

    client.shutdown().unwrap_or_else(|e| panic!("shutdown failed: {e}"));
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}

#[test]
fn gcn_served_matches_offline_bitwise_at_every_precision() {
    let fx = fixture();
    serve_and_check(trained_gcn(&fx), &fx);
}

#[test]
fn agnn_served_matches_offline_bitwise_at_every_precision() {
    let fx = fixture();
    let model = AgnnModel::new(fx.features.cols(), 12, fx.classes, 2, 0.01, 5);
    serve_and_check(model.export_weights(), &fx);
}

/// Bad requests fail cleanly over the wire — wrong precision, wrong
/// feature dims, unknown model — and the connection stays usable.
#[test]
fn gnn_wire_errors_are_clean_and_survivable() {
    let fx = fixture();
    let weights = trained_gcn(&fx);
    let server =
        Server::bind(&ServerConfig::default()).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let addr = server.local_addr();
    let server_thread = thread::spawn(move || server.run());
    let mut client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("connect failed: {e}"));
    let loaded = client.load_matrix("t", &fx.adj).unwrap_or_else(|e| panic!("load: {e}"));
    let (kind, wire, scalars) = weights.export_wire();
    let wire: Vec<(u32, u32, Vec<f32>)> =
        wire.into_iter().map(|(r, c, d)| (r as u32, c as u32, d)).collect();

    // Register against a nonexistent graph: UnknownMatrix.
    assert!(client.gnn_register("t", 999, kind, wire.clone(), scalars.clone()).is_err());
    let (model_id, _, _) = client
        .gnn_register("t", loaded.matrix_id, kind, wire, scalars)
        .unwrap_or_else(|e| panic!("register: {e}"));

    let f = fx.features.as_slice();
    // Precision 7 does not exist.
    assert!(client
        .gnn_infer("t", model_id, 7, 0, &[], fx.features.rows(), fx.features.cols(), f)
        .is_err());
    // Feature rows must match the graph's node count.
    assert!(client
        .gnn_infer("t", model_id, 0, 0, &[], 3, fx.features.cols(), &f[..3 * 16])
        .is_err());
    // Node id outside the graph.
    assert!(client
        .gnn_infer("t", model_id, 0, 0, &[9999], fx.features.rows(), fx.features.cols(), f)
        .is_err());
    // Unknown model id.
    assert!(client
        .gnn_infer("t", 424_242, 0, 0, &[], fx.features.rows(), fx.features.cols(), f)
        .is_err());

    // The connection survived all of it.
    let ok = client
        .gnn_infer("t", model_id, 2, 0, &[0], fx.features.rows(), fx.features.cols(), f)
        .unwrap_or_else(|e| panic!("valid request after errors failed: {e}"));
    assert_eq!(ok.rows, 1);

    client.shutdown().unwrap_or_else(|e| panic!("shutdown: {e}"));
    server_thread
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"))
        .unwrap_or_else(|e| panic!("server run failed: {e}"));
}

/// Evicting the graph matrix invalidates the embedding cache of every
/// model bound to it, and removes those models: the next inference fails
/// cleanly instead of answering from the cache.
#[test]
fn graph_eviction_invalidates_the_embedding_cache() {
    let fx = fixture();
    let weights = trained_gcn(&fx);
    let engine = ServeEngine::start(EngineConfig::default());
    let graph = engine.register_matrix("t", fx.adj.clone()).expect("graph registered");
    let info = engine.gnn_register("t", graph.id, weights).expect("model registered");
    let warm = engine
        .gnn_infer(GnnInferRequest {
            tenant: "t".into(),
            model_id: info.id,
            precision: 2,
            deadline: None,
            node_ids: Vec::new(),
            features: fx.features.clone(),
        })
        .expect("warm-up inference");
    assert!(!warm.cache_hit);
    assert!(engine.evict_matrix(graph.id));
    let err = engine
        .gnn_infer(GnnInferRequest {
            tenant: "t".into(),
            model_id: info.id,
            precision: 2,
            deadline: None,
            node_ids: Vec::new(),
            features: fx.features.clone(),
        })
        .expect_err("graph is gone");
    // The model went with its graph (matrix ids are never reused, so it
    // could never be served again while still holding its share of the
    // model budget) — `UnknownModel` where this used to be `UnknownGraph`.
    // Both are `ErrorCode::UnknownMatrix` on the wire.
    assert!(matches!(err, GnnError::UnknownModel(_)), "{err}");
    // The invalidation shows up in the metrics document.
    let metrics = engine.metrics_json();
    let gnn = metrics.find("\"gnn\":{").map(|i| &metrics[i..]).unwrap_or("");
    assert!(!gnn.contains("\"invalidations\":0"), "expected nonzero invalidations: {gnn}");
    engine.shutdown();
}

/// The circuit-breaker hook: when an SpMM on the graph fails kernel
/// verification (forced here with an impossible tolerance), embeddings
/// aggregated over that graph are no longer trusted — the next GNN
/// request must miss the cache and recompute, even though the request
/// itself is byte-identical to the warm one.
#[test]
fn spmm_verify_failure_invalidates_the_embedding_cache() {
    let fx = fixture();
    let weights = trained_gcn(&fx);
    let engine = ServeEngine::start(EngineConfig {
        workers: 1,
        verify: true,
        verify_tolerance: -1.0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(600),
        ..EngineConfig::default()
    });
    let graph = engine.register_matrix("t", fx.adj.clone()).expect("graph registered");
    let info = engine.gnn_register("t", graph.id, weights).expect("model registered");
    let req = || GnnInferRequest {
        tenant: "t".into(),
        model_id: info.id,
        precision: 2,
        deadline: None,
        node_ids: Vec::new(),
        features: fx.features.clone(),
    };
    let warm = engine.gnn_infer(req()).expect("warm-up inference");
    assert!(!warm.cache_hit);
    let hit = engine.gnn_infer(req()).expect("cached inference");
    assert!(hit.cache_hit, "cache must be warm before the fault");

    // The impossible tolerance fails every verification rung; the
    // request still completes on the trusted scalar fallback.
    let b = DenseMatrix::from_fn(fx.adj.cols(), 8, |r, c| ((r + c) % 5) as f32 * 0.25);
    let outcome = engine
        .spmm_blocking(SpmmRequest {
            tenant: "t".into(),
            matrix_id: graph.id,
            b,
            deadline: Some(Duration::from_secs(60)),
        })
        .expect("admitted");
    assert!(matches!(outcome, SpmmOutcome::Done(_)), "{outcome:?}");
    let (verify_failures, _, _, _) = engine.resilience_stats();
    assert!(verify_failures > 0, "the impossible tolerance must fail verification");

    let recompute = engine.gnn_infer(req()).expect("recompute after invalidation");
    assert!(!recompute.cache_hit, "verify failure must poison the embedding cache");
    // The recomputed logits still match the warm ones bitwise: the GNN
    // path itself was never corrupted, only distrusted.
    let warm_bits: Vec<u32> = warm.scores.iter().map(|v| v.to_bits()).collect();
    let re_bits: Vec<u32> = recompute.scores.iter().map(|v| v.to_bits()).collect();
    assert_eq!(warm_bits, re_bits);
    engine.shutdown();
}
