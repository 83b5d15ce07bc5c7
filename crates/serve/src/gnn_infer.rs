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
//! Three protections mirror the engine's matrix handling:
//!
//! * **Budgets** — model count and parameter bytes are capped like the
//!   matrix registry's, so clients cannot grow server memory unbounded.
//! * **Embedding cache** — per-layer outputs are cached under
//!   `(model, precision, feature fingerprint)` with LRU eviction under a
//!   byte budget; a hit replays the exact bits the miss path produced.
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fs_gnn::{GnnBackend, GnnWeights, SparseOps};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_tcu::GpuSpec;
use fs_trace::export::JsonWriter;
use parking_lot::Mutex;

use crate::fingerprint::Fingerprint;

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
    weight_bytes: usize,
}

#[derive(Default)]
struct ModelRegistry {
    map: HashMap<u64, Arc<ModelEntry>>,
    resident_bytes: usize,
}

/// All per-layer outputs of one forward pass — the embedding-cache
/// value. The last layer is the logits.
struct EmbeddingEntry {
    layers: Vec<DenseMatrix<f32>>,
    model_id: u64,
    bytes: usize,
    last_used: u64,
}

fn embedding_bytes(layers: &[DenseMatrix<f32>]) -> usize {
    layers.iter().map(|m| m.len() * std::mem::size_of::<f32>()).sum()
}

/// `(model, precision, feature fingerprint)` — the cache key. Precision
/// is part of the key because FP16/TF32/FP32 logits legitimately differ.
type CacheKey = (u64, u8, Fingerprint);

#[derive(Default)]
struct EmbeddingCache {
    budget_bytes: usize,
    resident_bytes: usize,
    tick: u64,
    entries: HashMap<CacheKey, EmbeddingEntry>,
    evictions: u64,
}

impl EmbeddingCache {
    fn get(&mut self, key: &CacheKey) -> Option<&EmbeddingEntry> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                Some(entry)
            }
            None => None,
        }
    }

    fn insert(&mut self, key: CacheKey, model_id: u64, layers: Vec<DenseMatrix<f32>>) {
        let bytes = embedding_bytes(&layers);
        if bytes > self.budget_bytes {
            return; // oversize: served but never stored, like FormatCache
        }
        if self.entries.contains_key(&key) {
            return;
        }
        while self.resident_bytes + bytes > self.budget_bytes {
            if !self.evict_lru() {
                break;
            }
        }
        self.tick += 1;
        self.resident_bytes += bytes;
        let entry = EmbeddingEntry { layers, model_id, bytes, last_used: self.tick };
        self.entries.insert(key, entry);
    }

    fn evict_lru(&mut self) -> bool {
        let victim = self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
        match victim {
            Some(k) => {
                if let Some(e) = self.entries.remove(&k) {
                    self.resident_bytes -= e.bytes;
                    self.evictions += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Drop every entry belonging to `model_id`; returns how many fell.
    fn invalidate_model(&mut self, model_id: u64) -> usize {
        let victims: Vec<CacheKey> =
            self.entries.iter().filter(|(_, e)| e.model_id == model_id).map(|(k, _)| *k).collect();
        for k in &victims {
            if let Some(e) = self.entries.remove(k) {
                self.resident_bytes -= e.bytes;
            }
        }
        victims.len()
    }
}

/// Engine-internal GNN serving state: the model registry, the embedding
/// cache, and their counters.
pub(crate) struct GnnState {
    cfg: GnnConfig,
    models: Mutex<ModelRegistry>,
    cache: Mutex<EmbeddingCache>,
    next_id: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    invalidations: AtomicU64,
    verify_retries: AtomicU64,
    verify_failures: AtomicU64,
}

impl GnnState {
    pub(crate) fn new(cfg: GnnConfig) -> GnnState {
        GnnState {
            cfg,
            models: Mutex::new(ModelRegistry::default()),
            cache: Mutex::new(EmbeddingCache {
                budget_bytes: cfg.cache_budget_bytes,
                ..EmbeddingCache::default()
            }),
            next_id: AtomicU64::new(1),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            verify_retries: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
        }
    }

    /// Register weights bound to graph `matrix_id` (already validated
    /// against the matrix registry by the engine).
    pub(crate) fn register(
        &self,
        matrix_id: u64,
        graph_nodes: usize,
        weights: GnnWeights,
    ) -> Result<GnnModelInfo, GnnError> {
        weights.check_dims().map_err(GnnError::BadRequest)?;
        if weights.input_dim() == 0 || weights.output_dim() == 0 {
            return Err(GnnError::BadRequest("model has an empty projection".into()));
        }
        let _ = graph_nodes; // feature rows are validated per request
        let weight_bytes = weights.weight_bytes();
        let layers = weights.num_layers();
        let mut models = self.models.lock();
        if models.map.len() >= self.cfg.max_models {
            return Err(GnnError::ResourceExhausted(format!(
                "model registry full ({} models)",
                self.cfg.max_models
            )));
        }
        if weight_bytes > self.cfg.max_model_bytes.saturating_sub(models.resident_bytes) {
            return Err(GnnError::ResourceExhausted(format!(
                "model byte budget exceeded: {} resident of {}, need {}",
                models.resident_bytes, self.cfg.max_model_bytes, weight_bytes
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        models.resident_bytes += weight_bytes;
        models.map.insert(id, Arc::new(ModelEntry { weights, matrix_id, weight_bytes }));
        Ok(GnnModelInfo { id, weight_bytes, layers })
    }

    /// The graph matrix a model is bound to.
    pub(crate) fn model_graph(&self, model_id: u64) -> Option<u64> {
        self.models.lock().map.get(&model_id).map(|m| m.matrix_id)
    }

    /// Registered-model totals: `(count, resident parameter bytes)`.
    pub(crate) fn model_stats(&self) -> (usize, usize) {
        let models = self.models.lock();
        let bytes: usize = models.map.values().map(|m| m.weight_bytes).sum();
        debug_assert_eq!(bytes, models.resident_bytes);
        (models.map.len(), bytes)
    }

    /// Drop every cache entry whose model aggregates over `matrix_id` —
    /// called when the matrix's circuit breaker reports a verification
    /// failure (its kernel output is no longer trusted) and when the
    /// matrix is evicted.
    pub(crate) fn invalidate_matrix(&self, matrix_id: u64) -> usize {
        let bound: Vec<u64> = self
            .models
            .lock()
            .map
            .iter()
            .filter(|(_, m)| m.matrix_id == matrix_id)
            .map(|(&id, _)| id)
            .collect();
        let mut dropped = 0;
        let mut cache = self.cache.lock();
        for id in bound {
            dropped += cache.invalidate_model(id);
        }
        if dropped > 0 {
            self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        }
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
        let model = self
            .models
            .lock()
            .map
            .get(&model_id)
            .cloned()
            .ok_or(GnnError::UnknownModel(model_id))?;
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

        // Cache lookup (span covers the probe; hit/miss split is in the
        // gnn_cache_* counters).
        let cached: Option<Vec<f32>> = {
            let _span = fs_trace::span(fs_trace::Site::ServeGnnCache);
            self.cache
                .lock()
                .get(&key)
                .map(|e| e.layers.last().map(|m| m.as_slice().to_vec()).unwrap_or_default())
        };
        if let Some(logits) = cached {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            fs_trace::add(fs_trace::TraceCounter::GnnCacheHits, 1);
            let (rows, scores) = select_rows(&logits, model.weights.output_dim(), node_ids);
            return Ok(GnnInferResponse {
                rows,
                classes: model.weights.output_dim() as u32,
                scores,
                layer_micros: vec![0; layers],
                cache_hit: true,
            });
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        fs_trace::add(fs_trace::TraceCounter::GnnCacheMisses, 1);

        let ops = SparseOps::new(backend, gpu);
        let (outputs, micros) = if verify {
            // Double-execution voting: the forward pass must reproduce
            // itself bitwise. A transient fault (chaos MMA flips) makes
            // the two runs disagree; retry with fresh runs. Persistent
            // disagreement poisons the model's cache and fails loudly —
            // an error response, never silently corrupt scores.
            let mut agreed = None;
            for attempt in 0..VERIFY_ATTEMPTS {
                let (outputs, micros) = timed_forward(&model.weights, &ops, graph, features);
                let recheck = model.weights.forward(&ops, graph, features);
                let a = outputs.last().map(|m| m.as_slice()).unwrap_or(&[]);
                if bits_equal(a, recheck.as_slice()) {
                    agreed = Some((outputs, micros));
                    break;
                }
                self.verify_retries.fetch_add(1, Ordering::Relaxed);
                let _ = attempt;
            }
            match agreed {
                Some(pair) => pair,
                None => {
                    self.verify_failures.fetch_add(1, Ordering::Relaxed);
                    let dropped = self.cache.lock().invalidate_model(model_id);
                    self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
                    return Err(GnnError::Internal(format!(
                        "forward passes disagreed {VERIFY_ATTEMPTS} times; \
                         embedding cache invalidated for model {model_id}"
                    )));
                }
            }
        } else {
            timed_forward(&model.weights, &ops, graph, features)
        };

        let logits = outputs.last().map(|m| m.as_slice().to_vec()).unwrap_or_default();
        self.cache.lock().insert(key, model_id, outputs);
        let (rows, scores) = select_rows(&logits, model.weights.output_dim(), node_ids);
        Ok(GnnInferResponse {
            rows,
            classes: model.weights.output_dim() as u32,
            scores,
            layer_micros: micros,
            cache_hit: false,
        })
    }

    /// JSON object for the metrics document's `gnn` section.
    pub(crate) fn stats_json(&self) -> String {
        let (models, model_bytes) = self.model_stats();
        let cache = self.cache.lock();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("models", models as u64);
        w.field_u64("model_bytes", model_bytes as u64);
        w.field_u64("max_models", self.cfg.max_models as u64);
        w.field_u64("max_model_bytes", self.cfg.max_model_bytes as u64);
        w.key("cache").begin_object();
        w.field_u64("entries", cache.entries.len() as u64);
        w.field_u64("resident_bytes", cache.resident_bytes as u64);
        w.field_u64("budget_bytes", cache.budget_bytes as u64);
        w.field_u64("hits", load(&self.cache_hits));
        w.field_u64("misses", load(&self.cache_misses));
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
        state.register(1, 48, weights.clone()).expect("first fits");
        let err = state.register(1, 48, weights.clone()).expect_err("count cap");
        assert!(matches!(err, GnnError::ResourceExhausted(_)), "{err}");
        let tiny = GnnState::new(GnnConfig { max_model_bytes: 8, ..GnnConfig::default() });
        let err = tiny.register(1, 48, weights).expect_err("byte cap");
        assert!(matches!(err, GnnError::ResourceExhausted(_)), "{err}");
    }

    #[test]
    fn register_rejects_inconsistent_weights() {
        let state = GnnState::new(GnnConfig::default());
        let bad =
            GnnWeights::gcn(vec![DenseMatrix::<f32>::zeros(4, 8), DenseMatrix::<f32>::zeros(9, 2)]);
        assert!(matches!(state.register(1, 48, bad), Err(GnnError::BadRequest(_))));
    }

    #[test]
    fn cache_hit_replays_miss_bits_and_counts() {
        let (state, adj, features, weights, classes) = setup();
        let info = state.register(7, 48, weights).expect("register");
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
        assert_eq!(state.cache_hits.load(Ordering::Relaxed), 3);
        assert_eq!(state.cache_misses.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn precision_is_part_of_the_cache_key() {
        let (state, adj, features, weights, _) = setup();
        let info = state.register(7, 48, weights).expect("register");
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
        let info = state.register(7, 48, weights).expect("register");
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
        let bound = state.register(7, 48, weights.clone()).expect("bound to 7");
        let other = state.register(8, 48, weights).expect("bound to 8");
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
        let info = state.register(7, 48, weights).expect("register");
        let plain =
            state.infer(info.id, &adj, GpuSpec::RTX4090, false, 2, &[], &features).expect("plain");
        let fresh = GnnState::new(GnnConfig::default());
        let info2 = fresh
            .register(7, 48, fs_gnn::GcnModel::new(&[8, 12, 4], 0.01, 3).export_weights())
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
        let info = state.register(7, 48, weights).expect("register");
        let err = state
            .infer(info.id, &adj, GpuSpec::RTX4090, false, 9, &[], &features)
            .expect_err("bad precision");
        assert!(matches!(err, GnnError::BadRequest(_)));
    }

    #[test]
    fn embedding_cache_lru_stays_within_budget() {
        let mut cache = EmbeddingCache { budget_bytes: 4096, ..EmbeddingCache::default() };
        let fp = |seed: u64| {
            Fingerprint::of_dense(&DenseMatrix::<f32>::from_fn(2, 2, |r, c| {
                (seed as f32) + (r * 2 + c) as f32
            }))
        };
        for seed in 0..16 {
            let layers = vec![DenseMatrix::<f32>::zeros(8, 16)]; // 512 B each
            cache.insert((1, 0, fp(seed)), 1, layers);
            assert!(cache.resident_bytes <= cache.budget_bytes);
        }
        assert!(cache.evictions > 0, "16 × 512 B must not fit in 4 KiB");
        // Oversize entries are never stored.
        let huge = vec![DenseMatrix::<f32>::zeros(64, 64)]; // 16 KiB
        cache.insert((1, 0, fp(99)), 1, huge);
        assert!(cache.get(&(1, 0, fp(99))).is_none());
    }
}
