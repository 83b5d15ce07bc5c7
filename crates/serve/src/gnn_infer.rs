//! Server-side GNN inference: registered model weights, the embedding
//! cache, and the multi-layer forward-pass executor behind
//! `REQ_GNN_INFER`.
//!
//! A model is a [`fs_gnn::GnnWeights`] snapshot bound to an
//! already-registered graph. Inference replays exactly the offline
//! forward pass ([`GnnWeights::forward_with`]), so served scores are
//! bit-identical to the fs-gnn reference at each precision — FP32, TF32,
//! or FP16, selected per request (the paper's Table 8 accuracy/latency
//! tradeoff as a serving SLA knob).
//!
//! An inference is a job on the engine's queue like any SpMM: admitted
//! against the queue's capacity, shed at dequeue if its deadline passed,
//! run by a worker inside the batch unwind boundary, drained on shutdown
//! and accounted to its tenant. Around the forward pass this module uses
//! the engine's own machinery rather than copies of it:
//!
//! * **Budgets** — models live in the same `Registry` type as
//!   matrices, capped by count and parameter bytes; evicting a graph
//!   removes the models bound to it.
//! * **Embedding cache** — per-layer outputs sit in the same
//!   [`ByteLru`] as translated formats, keyed by `(model, precision,
//!   feature fingerprint)`; a hit replays the exact bits the miss path
//!   produced.
//! * **Double-execution verify** — when the engine runs with `verify`
//!   on (always under chaos), the forward pass runs twice and must
//!   agree bitwise; persistent disagreement invalidates the model's
//!   cache entries and fails the request instead of serving corrupt
//!   scores. Breaker trips on the underlying graph also invalidate.
//!
//! # Example
//!
//! The state is engine-internal; the public surface is
//! [`crate::ServeEngine::gnn_register`] / [`crate::ServeEngine::gnn_infer`]
//! (and [`crate::ServeClient::gnn_infer`] over the wire):
//!
//! ```
//! use fs_gnn::{normalize_adjacency, GcnModel, GnnBackend, SparseOps};
//! use fs_matrix::gen::{sbm, SbmConfig};
//! use fs_serve::{EngineConfig, GnnInferRequest, ServeEngine};
//! use fs_tcu::GpuSpec;
//!
//! let ds = sbm(SbmConfig { nodes: 48, feature_dim: 8, ..Default::default() }, 1);
//! let adj = normalize_adjacency(&ds.adjacency);
//! let model = GcnModel::new(&[8, 12, ds.classes], 0.01, 1);
//!
//! let engine = ServeEngine::start(EngineConfig::default());
//! let graph = engine.register_matrix("t", adj.clone()).unwrap();
//! let info = engine.gnn_register("t", graph.id, model.export_weights()).unwrap();
//! let out = engine
//!     .gnn_infer(GnnInferRequest {
//!         tenant: "t".into(),
//!         model_id: info.id,
//!         precision: 2, // FP16
//!         deadline: None,
//!         node_ids: vec![0, 7],
//!         features: ds.features.clone(),
//!     })
//!     .unwrap();
//! assert_eq!(out.rows, 2);
//! assert_eq!(out.classes as usize, ds.classes);
//!
//! // Bit-identical to the offline fs-gnn forward at the same precision.
//! let ops = SparseOps::new(GnnBackend::FlashFp16, GpuSpec::RTX4090);
//! let offline = model.export_weights().forward(&ops, &adj, &ds.features);
//! let want: Vec<f32> = (0..ds.classes).map(|c| offline.get(0, c)).collect();
//! assert_eq!(&out.scores[..ds.classes], &want[..]);
//! engine.shutdown();
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fs_gnn::{GnnBackend, GnnWeights, SparseOps};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_tcu::GpuSpec;
use fs_trace::export::JsonWriter;
use parking_lot::Mutex;

use crate::cache::{ByteLru, Footprint};
use crate::fingerprint::Fingerprint;
use crate::registry::Registry;

/// Budgets for the GNN model registry and embedding cache.
#[derive(Clone, Copy, Debug)]
pub struct GnnConfig {
    /// Most models that may be registered at once.
    pub max_models: usize,
    /// Byte budget for resident model parameters.
    pub max_model_bytes: usize,
    /// Byte budget of the per-layer embedding cache (0 disables it).
    pub cache_budget_bytes: usize,
}

impl Default for GnnConfig {
    fn default() -> GnnConfig {
        GnnConfig { max_models: 64, max_model_bytes: 256 << 20, cache_budget_bytes: 64 << 20 }
    }
}

/// What a registered model looks like to clients.
#[derive(Clone, Copy, Debug)]
pub struct GnnModelInfo {
    /// Handle inference requests refer to.
    pub id: u64,
    /// Parameter bytes charged against the model budget.
    pub weight_bytes: usize,
    /// Timed layers one forward pass reports.
    pub layers: usize,
}

/// Why a GNN registration or inference failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GnnError {
    /// The referenced graph matrix is not registered.
    UnknownGraph(u64),
    /// The referenced model is not registered.
    UnknownModel(u64),
    /// The request was malformed (bad precision, dims, node ids…).
    BadRequest(String),
    /// A registry budget (model count or parameter bytes) is exhausted.
    ResourceExhausted(String),
    /// The engine's bounded queue is full — retry later (backpressure).
    QueueFull,
    /// The deadline passed before the response was ready.
    DeadlineExceeded,
    /// Verification could not produce two agreeing forward passes.
    Internal(String),
}

impl std::fmt::Display for GnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GnnError::UnknownGraph(id) => write!(f, "unknown graph matrix id {id}"),
            GnnError::UnknownModel(id) => write!(f, "unknown model id {id}"),
            GnnError::BadRequest(m) => write!(f, "bad request: {m}"),
            GnnError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            GnnError::QueueFull => write!(f, "queue full"),
            GnnError::DeadlineExceeded => write!(f, "deadline exceeded"),
            GnnError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for GnnError {}

/// One GNN inference to run ([`crate::ServeEngine::gnn_infer`]).
#[derive(Clone, Debug)]
pub struct GnnInferRequest {
    /// Tenant the work is accounted to.
    pub tenant: String,
    /// Handle from [`crate::ServeEngine::gnn_register`].
    pub model_id: u64,
    /// Wire precision: 0 = FP32, 1 = TF32, 2 = FP16.
    pub precision: u8,
    /// Per-request deadline (`None` = engine default).
    pub deadline: Option<Duration>,
    /// Node ids whose scores to return; empty = all nodes.
    pub node_ids: Vec<u32>,
    /// Node features, `graph nodes × model input dim`.
    pub features: DenseMatrix<f32>,
}

/// A completed GNN inference.
#[derive(Clone, Debug)]
pub struct GnnInferResponse {
    /// Score rows returned (requested nodes, or all nodes).
    pub rows: u32,
    /// Classes per node.
    pub classes: u32,
    /// Row-major logits, `rows × classes`, in `node_ids` order.
    pub scores: Vec<f32>,
    /// Per-layer execution microseconds; all zero on a cache hit.
    pub layer_micros: Vec<u64>,
    /// Whether the logits came from the embedding cache.
    pub cache_hit: bool,
}

/// Map the wire precision byte to a kernel backend.
pub fn backend_for_precision(precision: u8) -> Option<GnnBackend> {
    match precision {
        0 => Some(GnnBackend::CudaFp32),
        1 => Some(GnnBackend::FlashTf32),
        2 => Some(GnnBackend::FlashFp16),
        _ => None,
    }
}

/// Attempts (pairs of forward passes) the double-execution verifier
/// makes before declaring the model's output untrustworthy.
const VERIFY_ATTEMPTS: usize = 3;

struct ModelEntry {
    weights: GnnWeights,
    matrix_id: u64,
}

impl Footprint for ModelEntry {
    fn footprint_bytes(&self) -> usize {
        self.weights.weight_bytes()
    }
}

/// All per-layer outputs of one forward pass — the embedding-cache
/// value. The last layer is the logits.
type Embedding = Vec<DenseMatrix<f32>>;

impl Footprint for Embedding {
    fn footprint_bytes(&self) -> usize {
        self.iter().map(|m| m.len() * std::mem::size_of::<f32>()).sum()
    }
}

/// `(model, precision, feature fingerprint)` — the cache key. Precision
/// is part of the key because FP16/TF32/FP32 logits legitimately differ.
type CacheKey = (u64, u8, Fingerprint);

/// Engine-internal GNN serving state: the model registry, the embedding
/// cache, and their counters.
pub(crate) struct GnnState {
    cfg: GnnConfig,
    models: Mutex<Registry<ModelEntry>>,
    cache: Mutex<ByteLru<CacheKey, Embedding>>,
    invalidations: AtomicU64,
    verify_retries: AtomicU64,
    verify_failures: AtomicU64,
}

impl GnnState {
    pub(crate) fn new(cfg: GnnConfig) -> GnnState {
        GnnState {
            cfg,
            models: Mutex::new(Registry::new(cfg.max_models, cfg.max_model_bytes)),
            cache: Mutex::new(ByteLru::new(cfg.cache_budget_bytes)),
            invalidations: AtomicU64::new(0),
            verify_retries: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
        }
    }

    /// Register weights bound to graph `matrix_id` (already validated
    /// against the matrix registry by the engine; feature rows are
    /// validated per request).
    pub(crate) fn register(
        &self,
        matrix_id: u64,
        weights: GnnWeights,
    ) -> Result<GnnModelInfo, GnnError> {
        weights.check_dims().map_err(GnnError::BadRequest)?;
        if weights.input_dim() == 0 || weights.output_dim() == 0 {
            return Err(GnnError::BadRequest("model has an empty projection".into()));
        }
        let weight_bytes = weights.weight_bytes();
        let layers = weights.num_layers();
        let id = self
            .models
            .lock()
            .insert(ModelEntry { weights, matrix_id })
            .map_err(|e| GnnError::ResourceExhausted(format!("model {e}")))?;
        Ok(GnnModelInfo { id, weight_bytes, layers })
    }

    /// The graph matrix a model is bound to.
    pub(crate) fn model_graph(&self, model_id: u64) -> Option<u64> {
        self.models.lock().get(model_id).map(|m| m.matrix_id)
    }

    /// Registered-model totals: `(count, resident parameter bytes)`.
    pub(crate) fn model_stats(&self) -> (usize, usize) {
        self.models.lock().stats()
    }

    /// Drop every cache entry whose model aggregates over `matrix_id` —
    /// called when the matrix's circuit breaker reports a verification
    /// failure (its kernel output is no longer trusted).
    pub(crate) fn invalidate_matrix(&self, matrix_id: u64) -> usize {
        let bound = self.models.lock().ids_where(|m| m.matrix_id == matrix_id);
        self.drop_embeddings(&bound)
    }

    /// The graph `matrix_id` was evicted: remove the models bound to it
    /// (matrix ids are never reused, so such a model could only ever
    /// answer `UnknownGraph` while still holding its share of the model
    /// budget) and their cached embeddings.
    pub(crate) fn evict_graph(&self, matrix_id: u64) {
        let bound = self.models.lock().remove_where(|m| m.matrix_id == matrix_id);
        self.drop_embeddings(&bound);
    }

    fn drop_embeddings(&self, models: &[u64]) -> usize {
        let dropped = self.cache.lock().retain(|(model, _, _)| !models.contains(model));
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Run one inference against `graph` (the engine resolves the model
    /// → graph binding and passes the resident CSR).
    pub(crate) fn infer(
        &self,
        model_id: u64,
        graph: &CsrMatrix<f32>,
        gpu: GpuSpec,
        verify: bool,
        precision: u8,
        node_ids: &[u32],
        features: &DenseMatrix<f32>,
    ) -> Result<GnnInferResponse, GnnError> {
        let backend = backend_for_precision(precision).ok_or_else(|| {
            GnnError::BadRequest(format!("unknown precision {precision} (0/1/2)"))
        })?;
        let model = self.models.lock().get(model_id).ok_or(GnnError::UnknownModel(model_id))?;
        let nodes = graph.rows();
        if graph.cols() != nodes {
            return Err(GnnError::BadRequest(format!(
                "registered matrix is {}x{}, not a square adjacency",
                nodes,
                graph.cols()
            )));
        }
        if features.rows() != nodes {
            return Err(GnnError::BadRequest(format!(
                "features have {} rows but the graph has {nodes} nodes",
                features.rows()
            )));
        }
        if features.cols() != model.weights.input_dim() {
            return Err(GnnError::BadRequest(format!(
                "features have {} columns but the model expects {}",
                features.cols(),
                model.weights.input_dim()
            )));
        }
        if let Some(bad) = node_ids.iter().find(|&&id| id as usize >= nodes) {
            return Err(GnnError::BadRequest(format!("node id {bad} outside graph of {nodes}")));
        }

        let key: CacheKey = (model_id, precision, Fingerprint::of_dense(features));
        let layers = model.weights.num_layers();
        let classes = model.weights.output_dim();

        // Cache lookup (span covers the probe; hit/miss split is in the
        // gnn_cache_* counters). A hit clones an `Arc` under the lock;
        // the logits are copied out after it is released.
        let cached = {
            let _span = fs_trace::span(fs_trace::Site::ServeGnnCache);
            self.cache.lock().get(&key)
        };
        if let Some(embedding) = cached {
            fs_trace::add(fs_trace::TraceCounter::GnnCacheHits, 1);
            let (rows, scores) = select_rows(logits_of(&embedding), classes, node_ids);
            return Ok(GnnInferResponse {
                rows,
                classes: classes as u32,
                scores,
                layer_micros: vec![0; layers],
                cache_hit: true,
            });
        }
        fs_trace::add(fs_trace::TraceCounter::GnnCacheMisses, 1);

        let ops = SparseOps::new(backend, gpu);
        let (outputs, micros) = if verify {
            // Double-execution voting: the forward pass must reproduce
            // itself bitwise. A transient fault (chaos MMA flips) makes
            // the two runs disagree; retry with fresh runs. Persistent
            // disagreement poisons the model's cache and fails loudly —
            // an error response, never silently corrupt scores.
            let agreed = (0..VERIFY_ATTEMPTS).find_map(|_| {
                let (outputs, micros) = timed_forward(&model.weights, &ops, graph, features);
                let recheck = model.weights.forward(&ops, graph, features);
                if bits_equal(logits_of(&outputs), recheck.as_slice()) {
                    return Some((outputs, micros));
                }
                self.verify_retries.fetch_add(1, Ordering::Relaxed);
                None
            });
            let Some(agreed) = agreed else {
                self.verify_failures.fetch_add(1, Ordering::Relaxed);
                self.drop_embeddings(&[model_id]);
                return Err(GnnError::Internal(format!(
                    "forward passes disagreed {VERIFY_ATTEMPTS} times; \
                     embedding cache invalidated for model {model_id}"
                )));
            };
            agreed
        } else {
            timed_forward(&model.weights, &ops, graph, features)
        };

        let embedding = self.cache.lock().insert(key, outputs);
        let (rows, scores) = select_rows(logits_of(&embedding), classes, node_ids);
        Ok(GnnInferResponse {
            rows,
            classes: classes as u32,
            scores,
            layer_micros: micros,
            cache_hit: false,
        })
    }

    /// JSON object for the metrics document's `gnn` section.
    pub(crate) fn stats_json(&self) -> String {
        let (models, model_bytes) = self.model_stats();
        let cache = self.cache.lock().stats();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("models", models as u64);
        w.field_u64("model_bytes", model_bytes as u64);
        w.field_u64("max_models", self.cfg.max_models as u64);
        w.field_u64("max_model_bytes", self.cfg.max_model_bytes as u64);
        w.key("cache").begin_object();
        w.field_u64("entries", cache.entries as u64);
        w.field_u64("resident_bytes", cache.resident_bytes as u64);
        w.field_u64("budget_bytes", cache.budget_bytes as u64);
        w.field_u64("hits", cache.hits);
        w.field_u64("misses", cache.misses);
        w.field_u64("evictions", cache.evictions);
        w.field_u64("invalidations", load(&self.invalidations));
        w.end_object();
        w.field_u64("verify_retries", load(&self.verify_retries));
        w.field_u64("verify_failures", load(&self.verify_failures));
        w.end_object();
        w.finish()
    }
}

/// One timed forward pass: per-layer outputs (for the embedding cache)
/// and per-layer microseconds, each layer under a `serve.gnn_layer` span.
fn timed_forward(
    weights: &GnnWeights,
    ops: &SparseOps,
    graph: &CsrMatrix<f32>,
    features: &DenseMatrix<f32>,
) -> (Vec<DenseMatrix<f32>>, Vec<u64>) {
    let layers = weights.num_layers();
    let mut outputs: Vec<DenseMatrix<f32>> = Vec::with_capacity(layers);
    let mut micros: Vec<u64> = Vec::with_capacity(layers);
    let mut started = Instant::now();
    let mut span = Some(fs_trace::span(fs_trace::Site::ServeGnnLayer));
    let _logits = weights.forward_with(ops, graph, features, |i, out| {
        micros.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        outputs.push(out.clone());
        span = None; // close this layer's span
        if i + 1 < layers {
            span = Some(fs_trace::span(fs_trace::Site::ServeGnnLayer));
            started = Instant::now();
        }
    });
    drop(span);
    (outputs, micros)
}

/// The logits of a forward pass: its last layer's output.
fn logits_of(layers: &[DenseMatrix<f32>]) -> &[f32] {
    layers.last().map_or(&[], |m| m.as_slice())
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Slice the requested rows out of the full logits (`node_ids` order);
/// empty `node_ids` returns every row.
fn select_rows(logits: &[f32], classes: usize, node_ids: &[u32]) -> (u32, Vec<f32>) {
    if node_ids.is_empty() {
        let rows = if classes == 0 { 0 } else { logits.len() / classes };
        return (rows as u32, logits.to_vec());
    }
    let mut scores = Vec::with_capacity(node_ids.len() * classes);
    for &id in node_ids {
        let start = id as usize * classes;
        scores.extend_from_slice(&logits[start..start + classes]);
    }
    (node_ids.len() as u32, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_gnn::normalize_adjacency;
    use fs_matrix::gen::{sbm, SbmConfig};

    fn setup() -> (GnnState, CsrMatrix<f32>, DenseMatrix<f32>, GnnWeights, usize) {
        let ds = sbm(SbmConfig { nodes: 48, feature_dim: 8, ..Default::default() }, 21);
        let adj = normalize_adjacency(&ds.adjacency);
        let weights = fs_gnn::GcnModel::new(&[8, 12, ds.classes], 0.01, 3).export_weights();
        (GnnState::new(GnnConfig::default()), adj, ds.features, weights, ds.classes)
    }

    #[test]
    fn register_budgets_are_enforced() {
        let (_, _, _, weights, _) = setup();
        let state = GnnState::new(GnnConfig { max_models: 1, ..GnnConfig::default() });
        state.register(1, weights.clone()).expect("first fits");
        let err = state.register(1, weights.clone()).expect_err("count cap");
        assert!(matches!(err, GnnError::ResourceExhausted(_)), "{err}");
        let tiny = GnnState::new(GnnConfig { max_model_bytes: 8, ..GnnConfig::default() });
        let err = tiny.register(1, weights).expect_err("byte cap");
        assert!(matches!(err, GnnError::ResourceExhausted(_)), "{err}");
    }

    #[test]
    fn register_rejects_inconsistent_weights() {
        let state = GnnState::new(GnnConfig::default());
        let bad =
            GnnWeights::gcn(vec![DenseMatrix::<f32>::zeros(4, 8), DenseMatrix::<f32>::zeros(9, 2)]);
        assert!(matches!(state.register(1, bad), Err(GnnError::BadRequest(_))));
    }

    #[test]
    fn cache_hit_replays_miss_bits_and_counts() {
        let (state, adj, features, weights, classes) = setup();
        let info = state.register(7, weights).expect("register");
        let gpu = GpuSpec::RTX4090;
        for precision in [0u8, 1, 2] {
            let miss = state
                .infer(info.id, &adj, gpu, false, precision, &[], &features)
                .expect("miss path");
            assert!(!miss.cache_hit);
            assert_eq!(miss.classes as usize, classes);
            assert!(miss.layer_micros.len() == 2);
            let hit = state
                .infer(info.id, &adj, gpu, false, precision, &[], &features)
                .expect("hit path");
            assert!(hit.cache_hit);
            assert_eq!(hit.layer_micros, vec![0, 0]);
            let a: Vec<u32> = miss.scores.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = hit.scores.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "hit must replay the miss bits at precision {precision}");
        }
        let stats = state.cache.lock().stats();
        assert_eq!((stats.hits, stats.misses), (3, 3));
    }

    #[test]
    fn precision_is_part_of_the_cache_key() {
        let (state, adj, features, weights, _) = setup();
        let info = state.register(7, weights).expect("register");
        let fp32 =
            state.infer(info.id, &adj, GpuSpec::RTX4090, false, 0, &[], &features).expect("fp32");
        let fp16 =
            state.infer(info.id, &adj, GpuSpec::RTX4090, false, 2, &[], &features).expect("fp16");
        assert!(!fp32.cache_hit && !fp16.cache_hit, "distinct precisions must both miss");
        assert_ne!(
            fp32.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fp16.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fp16 rounding must be visible vs fp32"
        );
    }

    #[test]
    fn node_id_selection_matches_full_rows() {
        let (state, adj, features, weights, classes) = setup();
        let info = state.register(7, weights).expect("register");
        let full =
            state.infer(info.id, &adj, GpuSpec::RTX4090, false, 1, &[], &features).expect("full");
        let some = state
            .infer(info.id, &adj, GpuSpec::RTX4090, false, 1, &[5, 0, 47], &features)
            .expect("mini-batch");
        assert_eq!(some.rows, 3);
        for (slot, &node) in [5usize, 0, 47].iter().enumerate() {
            let want = &full.scores[node * classes..(node + 1) * classes];
            let got = &some.scores[slot * classes..(slot + 1) * classes];
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        let err = state
            .infer(info.id, &adj, GpuSpec::RTX4090, false, 1, &[48], &features)
            .expect_err("node id out of range");
        assert!(matches!(err, GnnError::BadRequest(_)));
    }

    #[test]
    fn invalidate_matrix_drops_only_bound_models() {
        let (state, adj, features, weights, _) = setup();
        let bound = state.register(7, weights.clone()).expect("bound to 7");
        let other = state.register(8, weights).expect("bound to 8");
        for id in [bound.id, other.id] {
            state.infer(id, &adj, GpuSpec::RTX4090, false, 0, &[], &features).expect("warm");
        }
        assert_eq!(state.invalidate_matrix(7), 1, "one entry for the bound model");
        // The other model's entry survives: its next request still hits.
        let hit =
            state.infer(other.id, &adj, GpuSpec::RTX4090, false, 0, &[], &features).expect("hit");
        assert!(hit.cache_hit);
        // The bound model misses again.
        let miss =
            state.infer(bound.id, &adj, GpuSpec::RTX4090, false, 0, &[], &features).expect("miss");
        assert!(!miss.cache_hit);
    }

    #[test]
    fn verify_mode_agrees_with_plain_mode_bitwise() {
        let (state, adj, features, weights, _) = setup();
        let info = state.register(7, weights).expect("register");
        let plain =
            state.infer(info.id, &adj, GpuSpec::RTX4090, false, 2, &[], &features).expect("plain");
        let fresh = GnnState::new(GnnConfig::default());
        let info2 = fresh
            .register(7, fs_gnn::GcnModel::new(&[8, 12, 4], 0.01, 3).export_weights())
            .expect("register");
        let verified = fresh
            .infer(info2.id, &adj, GpuSpec::RTX4090, true, 2, &[], &features)
            .expect("verified");
        assert_eq!(
            plain.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            verified.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(fresh.verify_retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unknown_model_and_bad_precision_error_cleanly() {
        let (state, adj, features, _, _) = setup();
        let err = state
            .infer(99, &adj, GpuSpec::RTX4090, false, 0, &[], &features)
            .expect_err("unknown model");
        assert_eq!(err, GnnError::UnknownModel(99));
        let (state, adj, features, weights, _) = setup();
        let info = state.register(7, weights).expect("register");
        let err = state
            .infer(info.id, &adj, GpuSpec::RTX4090, false, 9, &[], &features)
            .expect_err("bad precision");
        assert!(matches!(err, GnnError::BadRequest(_)));
    }

    #[test]
    fn embedding_cache_lru_stays_within_budget() {
        let mut cache: ByteLru<CacheKey, Embedding> = ByteLru::new(4096);
        let fp = |seed: u64| {
            Fingerprint::of_dense(&DenseMatrix::<f32>::from_fn(2, 2, |r, c| {
                (seed as f32) + (r * 2 + c) as f32
            }))
        };
        for seed in 0..16 {
            let layers = vec![DenseMatrix::<f32>::zeros(8, 16)]; // 512 B each
            cache.insert((1, 0, fp(seed)), layers);
            assert!(cache.resident_bytes() <= cache.budget_bytes());
        }
        assert!(cache.stats().evictions > 0, "16 × 512 B must not fit in 4 KiB");
        // Oversize entries are never stored.
        let huge = vec![DenseMatrix::<f32>::zeros(64, 64)]; // 16 KiB
        cache.insert((1, 0, fp(99)), huge);
        assert!(cache.get(&(1, 0, fp(99))).is_none());
    }

    #[test]
    fn evicting_a_graph_removes_its_models_and_releases_their_bytes() {
        let (state, adj, features, weights, _) = setup();
        let bound = state.register(7, weights.clone()).expect("bound to 7");
        let other = state.register(8, weights.clone()).expect("bound to 8");
        state.infer(bound.id, &adj, GpuSpec::RTX4090, false, 0, &[], &features).expect("warm");
        state.evict_graph(7);
        assert_eq!(state.model_stats(), (1, weights.weight_bytes()));
        assert_eq!(state.model_graph(bound.id), None);
        assert_eq!(state.model_graph(other.id), Some(8));
        assert_eq!(state.cache.lock().stats().entries, 0, "its embeddings went with it");
    }
}
