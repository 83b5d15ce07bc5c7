//! The serving engine's front: its configuration, the [`ServeEngine`]
//! facade every caller (TCP server, router shard, in-process client,
//! benchmark) goes through, and the metrics document.
//!
//! The execution model mirrors what GNN-inference serving needs (the
//! paper's Fig. 16 end-to-end setting): a graph's adjacency matrix is
//! registered once, then answers many requests — SpMMs and whole GNN
//! forward passes alike. Behind this facade sit [`crate::registry`] (what
//! clients asked the server to keep, under count and byte budgets),
//! [`crate::queue`] (the one executor: bounded admission, micro-batching,
//! deadlines, panic isolation, chaos draws, drain — for every kind of
//! job) and `execute` (what a worker does with a batch: format
//! resolution, the overlapped cold path, the verify ladder and the
//! per-matrix [`fs_chaos::CircuitBreaker`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fs_chaos::CircuitBreaker;
use fs_gnn::GnnWeights;
use fs_matrix::CsrMatrix;
use fs_tcu::GpuSpec;
use fs_trace::export::JsonWriter;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheStats, FormatCache};
use crate::gnn_infer::{
    GnnConfig, GnnError, GnnInferRequest, GnnInferResponse, GnnModelInfo, GnnState,
};
use crate::metrics::{tenants_json, TenantStats};
use crate::queue::{admit, JobQueue, Outcome, Reply, Work, WorkerPool};
use crate::registry::{Registered, Registry};

pub use crate::queue::{SpmmOutcome, SpmmRequest, SpmmResponse, SubmitError, Ticket};
pub use crate::registry::{MatrixInfo, RegisterError};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it are rejected.
    pub queue_capacity: usize,
    /// Byte budget of the translated-format cache.
    pub cache_budget_bytes: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Largest micro-batch a worker gathers per dequeue.
    pub max_batch: usize,
    /// Most matrices that may be registered at once; further
    /// registrations are rejected (bounds server-resident memory, like
    /// the queue and cache budgets do for their structures).
    pub max_matrices: usize,
    /// Byte budget for the resident CSR copies of registered matrices.
    pub max_matrix_bytes: usize,
    /// Cold configuration: disable format caching entirely, so every
    /// request pays translation + tuning (the baseline the ≥5× serving
    /// speedup is measured against).
    pub cold: bool,
    /// Overlapped cold path: on a cache miss, answer the request by
    /// running SpMM straight from the registered CSR with the FALLBACK
    /// variant while the ME-BCRS translation streams in slab by slab
    /// ([`flashsparse::spmm_overlapped`]), instead of paying the full
    /// auto-tune + translate latency up front. A background thread then
    /// upgrades the cached entry to the auto-tuned variant. Ignored when
    /// `verify` is on or the simulator path is active.
    pub pipeline: bool,
    /// Simulated GPU the auto-tuner scores candidates on.
    pub gpu: GpuSpec,
    /// Verify every response against the scalar reference on sampled
    /// rows and walk the fallback ladder on mismatch (the self-healing
    /// path; off by default because the scalar recheck costs real time).
    pub verify: bool,
    /// Rows sampled per verification; `0` checks every row.
    pub verify_sample_rows: usize,
    /// Largest absolute element difference verification accepts as
    /// fp16/tf32 rounding.
    pub verify_tolerance: f32,
    /// Consecutive failing launches that open a matrix's circuit
    /// breaker (breakers only engage when `verify` is on).
    pub breaker_threshold: u32,
    /// How long an open breaker routes the matrix straight to the
    /// scalar path before letting a probe try the TCU again.
    pub breaker_cooldown: Duration,
    /// GNN model-registry and embedding-cache budgets.
    pub gnn: GnnConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            queue_capacity: 256,
            cache_budget_bytes: 256 << 20,
            default_deadline: Duration::from_secs(5),
            max_batch: 16,
            max_matrices: 1024,
            max_matrix_bytes: 1 << 30,
            cold: false,
            pipeline: true,
            gpu: GpuSpec::RTX4090,
            verify: false,
            verify_sample_rows: 0,
            verify_tolerance: flashsparse::DEFAULT_TOLERANCE,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
            gnn: GnnConfig::default(),
        }
    }
}

/// Everything the facade, the workers and the background tuners share.
pub(crate) struct Inner {
    pub(crate) cfg: EngineConfig,
    pub(crate) jobs: JobQueue,
    pub(crate) matrices: RwLock<Registry<Registered>>,
    pub(crate) cache: Mutex<FormatCache>,
    pub(crate) tenants: Mutex<HashMap<String, TenantStats>>,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) worker_respawns: AtomicU64,
    pub(crate) breakers: Mutex<HashMap<u64, CircuitBreaker>>,
    pub(crate) verify_failures: AtomicU64,
    pub(crate) fallbacks_default: AtomicU64,
    pub(crate) fallbacks_scalar: AtomicU64,
    pub(crate) breaker_bypasses: AtomicU64,
    pub(crate) exec_fast: AtomicU64,
    pub(crate) exec_simulate: AtomicU64,
    pub(crate) validate_skips: AtomicU64,
    pub(crate) overlaps: AtomicU64,
    /// GNN serving state: model registry + embedding cache.
    pub(crate) gnn: GnnState,
    /// Test hook: the next GNN job panics inside the unwind boundary.
    pub(crate) poison_gnn: AtomicBool,
    /// Background format-upgrade threads spawned by the overlapped cold
    /// path; reaped opportunistically and joined on shutdown.
    pub(crate) background: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// The multi-tenant batched serving engine.
pub struct ServeEngine {
    inner: Arc<Inner>,
    pool: WorkerPool,
}

impl ServeEngine {
    /// Start the engine: spawn the worker pool and its supervisor.
    pub fn start(mut cfg: EngineConfig) -> ServeEngine {
        cfg.workers = cfg.workers.max(1);
        cfg.max_batch = cfg.max_batch.max(1);
        let budget = if cfg.cold { 0 } else { cfg.cache_budget_bytes };
        let inner = Arc::new(Inner {
            cfg,
            jobs: JobQueue::new(cfg.queue_capacity, cfg.max_batch),
            matrices: RwLock::new(Registry::new(cfg.max_matrices, cfg.max_matrix_bytes)),
            cache: Mutex::new(FormatCache::new(budget)),
            tenants: Mutex::new(HashMap::new()),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            breakers: Mutex::new(HashMap::new()),
            verify_failures: AtomicU64::new(0),
            fallbacks_default: AtomicU64::new(0),
            fallbacks_scalar: AtomicU64::new(0),
            breaker_bypasses: AtomicU64::new(0),
            exec_fast: AtomicU64::new(0),
            exec_simulate: AtomicU64::new(0),
            validate_skips: AtomicU64::new(0),
            overlaps: AtomicU64::new(0),
            gnn: GnnState::new(cfg.gnn),
            poison_gnn: AtomicBool::new(false),
            background: Mutex::new(Vec::new()),
        });
        let pool = WorkerPool::start(&inner);
        ServeEngine { inner, pool }
    }

    /// Register a CSR matrix; returns the handle requests refer to. The
    /// raw CSR stays resident so an evicted translation can be rebuilt,
    /// which is why registration is budgeted: `max_matrices` entries and
    /// `max_matrix_bytes` resident CSR bytes, enforced here so clients
    /// cannot grow server memory without bound.
    pub fn register_matrix(
        &self,
        _tenant: &str,
        csr: CsrMatrix<f32>,
    ) -> Result<MatrixInfo, RegisterError> {
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        let reg = Registered::new(csr);
        let fingerprint = reg.fingerprint;
        let id = self.inner.matrices.write().insert(reg)?;
        Ok(MatrixInfo { id, fingerprint, rows, cols, nnz })
    }

    /// Registered-matrix totals: `(count, resident CSR bytes)`.
    pub fn registered_stats(&self) -> (usize, usize) {
        self.inner.matrices.read().stats()
    }

    /// Every resident matrix as `(fingerprint_hi, fingerprint_lo, id)`,
    /// ascending by id — the anti-entropy inventory a shard reports when
    /// a router asks who is already home.
    pub fn resident_matrices(&self) -> Vec<(u64, u64, u64)> {
        let registry = self.inner.matrices.read();
        let mut out: Vec<(u64, u64, u64)> = registry
            .iter()
            .map(|(id, reg)| (reg.fingerprint.hi(), reg.fingerprint.lo(), id))
            .collect();
        out.sort_unstable_by_key(|&(_, _, id)| id);
        out
    }

    /// Export a registered matrix's `(rows, cols, COO entries)` in CSR
    /// iteration order — the repair path's source copy. `None` when the
    /// id is unknown.
    pub fn export_matrix(&self, matrix_id: u64) -> Option<(usize, usize, Vec<(u32, u32, f32)>)> {
        let reg = self.inner.matrices.read().get(matrix_id)?;
        let csr = &reg.csr;
        // lint: checked-cast - rows and cols are capped at u32 by Load
        let entries = csr.iter().map(|(r, c, v)| (r as u32, c as u32, v)).collect();
        Some((csr.rows(), csr.cols(), entries))
    }

    /// Drop a registered matrix, releasing its resident-byte budget, its
    /// circuit breaker, and every GNN model bound to it as a graph (with
    /// their cached embeddings). Returns whether it existed. In-flight
    /// requests holding the `Arc` finish against the old copy.
    pub fn evict_matrix(&self, matrix_id: u64) -> bool {
        let existed = self.inner.matrices.write().remove(matrix_id).is_some();
        if existed {
            self.inner.breakers.lock().remove(&matrix_id);
            self.inner.gnn.evict_graph(matrix_id);
        }
        existed
    }

    /// Register GNN model weights bound to an already-registered graph
    /// matrix. Budgeted like matrices: `gnn.max_models` entries and
    /// `gnn.max_model_bytes` resident parameter bytes.
    pub fn gnn_register(
        &self,
        _tenant: &str,
        matrix_id: u64,
        weights: GnnWeights,
    ) -> Result<GnnModelInfo, GnnError> {
        if self.inner.matrices.read().get(matrix_id).is_none() {
            return Err(GnnError::UnknownGraph(matrix_id));
        }
        self.inner.gnn.register(matrix_id, weights)
    }

    /// Run one GNN inference: a full multi-layer forward pass over the
    /// model's registered graph at the requested precision, returning
    /// scores for the requested nodes (all nodes when `node_ids` is
    /// empty). The inference is one job on the engine's queue — admitted,
    /// shed, isolated, drained and accounted exactly like an SpMM — and
    /// this call blocks until a worker has answered it.
    pub fn gnn_infer(&self, req: GnnInferRequest) -> Result<GnnInferResponse, GnnError> {
        let graph =
            self.inner.gnn.model_graph(req.model_id).ok_or(GnnError::UnknownModel(req.model_id))?;
        let (tenant, deadline) = (req.tenant.clone(), req.deadline);
        let ticket =
            admit(&self.inner, &tenant, graph, deadline, Work::Gnn(req)).map_err(|e| match e {
                SubmitError::QueueFull => GnnError::QueueFull,
                other => GnnError::Internal(other.to_string()),
            })?;
        match ticket.wait_reply() {
            Outcome::Done(Reply::Gnn(result)) => result,
            Outcome::Done(Reply::Spmm(_)) => {
                Err(GnnError::Internal("reply of the wrong kind".into()))
            }
            Outcome::TimedOut => Err(GnnError::DeadlineExceeded),
            Outcome::Failed(why) => Err(GnnError::Internal(why)),
        }
    }

    /// Registered-model totals: `(count, resident parameter bytes)`.
    pub fn gnn_model_stats(&self) -> (usize, usize) {
        self.inner.gnn.model_stats()
    }

    /// Admit a request. `Err` means the request was *not* queued.
    pub fn submit(&self, req: SpmmRequest) -> Result<Ticket, SubmitError> {
        let reg = self
            .inner
            .matrices
            .read()
            .get(req.matrix_id)
            .ok_or(SubmitError::UnknownMatrix(req.matrix_id))?;
        if req.b.rows() != reg.csr.cols() {
            return Err(SubmitError::DimensionMismatch {
                expected_rows: reg.csr.cols(),
                got: req.b.rows(),
            });
        }
        admit(&self.inner, &req.tenant, req.matrix_id, req.deadline, Work::Spmm(req.b))
    }

    /// Submit and block for the outcome — the in-process client API.
    pub fn spmm_blocking(&self, req: SpmmRequest) -> Result<SpmmOutcome, SubmitError> {
        Ok(self.submit(req)?.wait())
    }

    /// Test hook: enqueue a request that panics during execution
    /// (`escape_worker = false`, caught at the batch boundary) or at the
    /// worker loop level (`escape_worker = true`, killing the thread so
    /// the supervisor must respawn it).
    #[doc(hidden)]
    pub fn submit_poison(
        &self,
        tenant: &str,
        matrix_id: u64,
        escape_worker: bool,
    ) -> Result<Ticket, SubmitError> {
        let work = if escape_worker { Work::PanicWorker } else { Work::PanicInBatch };
        admit(&self.inner, tenant, matrix_id, None, work)
    }

    /// Test hook: the next GNN inference a worker picks up panics inside
    /// the batch unwind boundary — the GNN counterpart of
    /// [`ServeEngine::submit_poison`], armed ahead of time so the doomed
    /// request can arrive over TCP.
    #[doc(hidden)]
    pub fn poison_next_gnn_infer(&self) {
        self.inner.poison_gnn.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the format-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().stats()
    }

    /// Snapshot of one tenant's totals.
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        self.inner.tenants.lock().get(tenant).copied().unwrap_or_default()
    }

    /// Worker panics caught (batch-isolated) since start.
    pub fn worker_panics(&self) -> u64 {
        self.inner.worker_panics.load(Ordering::Relaxed)
    }

    /// Workers respawned by the supervisor since start.
    pub fn worker_respawns(&self) -> u64 {
        self.inner.worker_respawns.load(Ordering::Relaxed)
    }

    /// Resilience totals since start: `(verify_failures,
    /// fallbacks_default, fallbacks_scalar, breaker_bypasses)`.
    pub fn resilience_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.inner.verify_failures.load(Ordering::Relaxed),
            self.inner.fallbacks_default.load(Ordering::Relaxed),
            self.inner.fallbacks_scalar.load(Ordering::Relaxed),
            self.inner.breaker_bypasses.load(Ordering::Relaxed),
        )
    }

    /// Execution-mode accounting: `(fast launches, simulate launches,
    /// validate-skip hits)`. Breaker-bypassed requests run on the scalar
    /// path and count under neither mode.
    pub fn exec_stats(&self) -> (u64, u64, u64) {
        (
            self.inner.exec_fast.load(Ordering::Relaxed),
            self.inner.exec_simulate.load(Ordering::Relaxed),
            self.inner.validate_skips.load(Ordering::Relaxed),
        )
    }

    /// Overlapped cold-path executions: one per cache-missing batch the
    /// pipelined engine answered via [`flashsparse::spmm_overlapped`].
    pub fn overlap_count(&self) -> u64 {
        self.inner.overlaps.load(Ordering::Relaxed)
    }

    /// Circuit-breaker trips summed over every registered matrix.
    pub fn breaker_trips(&self) -> u64 {
        self.inner.breakers.lock().values().map(CircuitBreaker::trips).sum()
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.inner.jobs.len()
    }

    /// The whole metrics document: cache, engine, resilience, chaos, and
    /// per-tenant stats.
    pub fn metrics_json(&self) -> String {
        let (registered, registered_bytes) = self.registered_stats();
        let (verify_failures, fallbacks_default, fallbacks_scalar, breaker_bypasses) =
            self.resilience_stats();
        let (exec_fast, exec_simulate, validate_skips) = self.exec_stats();
        let cfg = &self.inner.cfg;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("cache").value_raw(&self.cache_stats().to_json());
        w.key("engine").begin_object();
        w.field_u64("workers", cfg.workers as u64);
        w.field_u64("queue_capacity", cfg.queue_capacity as u64);
        w.field_u64("queue_len", self.queue_len() as u64);
        w.field_u64("max_batch", cfg.max_batch as u64);
        w.field_bool("cold", cfg.cold);
        w.field_str("gpu", &format!("{:?}", cfg.gpu));
        w.field_u64("registered_matrices", registered as u64);
        w.field_u64("registered_bytes", registered_bytes as u64);
        w.field_u64("max_matrices", cfg.max_matrices as u64);
        w.field_u64("max_matrix_bytes", cfg.max_matrix_bytes as u64);
        w.field_u64("worker_panics", self.worker_panics());
        w.field_u64("worker_respawns", self.worker_respawns());
        w.end_object();
        w.key("resilience").begin_object();
        w.field_bool("verify", cfg.verify);
        w.field_u64("verify_failures", verify_failures);
        w.field_u64("fallbacks_default", fallbacks_default);
        w.field_u64("fallbacks_scalar", fallbacks_scalar);
        w.field_u64("breaker_trips", self.breaker_trips());
        w.field_u64("breaker_bypasses", breaker_bypasses);
        w.end_object();
        w.key("exec").begin_object();
        w.field_u64("fast", exec_fast);
        w.field_u64("simulate", exec_simulate);
        w.field_u64("validate_skips", validate_skips);
        w.end_object();
        w.key("pipeline").begin_object();
        w.field_bool("enabled", cfg.pipeline);
        w.field_u64("overlaps", self.overlap_count());
        w.end_object();
        w.key("gnn").value_raw(&self.inner.gnn.stats_json());
        w.key("chaos").begin_object();
        w.field_bool("enabled", fs_chaos::chaos_enabled());
        match fs_chaos::inject::active_plan() {
            Some(plan) => w.field_str("plan", &plan.to_string()),
            None => w.key("plan").value_raw("null"),
        };
        w.key("faults").value_raw(&fs_chaos::report().to_json());
        w.end_object();
        w.key("trace").begin_object();
        w.field_bool("armed", fs_trace::trace_enabled());
        w.field_u64("spans", fs_trace::snapshot().total_spans());
        w.end_object();
        w.key("tenants").value_raw(&tenants_json(&self.inner.tenants.lock()));
        w.end_object();
        w.finish()
    }

    /// Graceful drain: stop admitting, let workers finish the queue, join
    /// the pool. Idempotent.
    pub fn shutdown(&self) {
        self.pool.shutdown(&self.inner);
        // Join background tuners after the workers: the queue is closed,
        // so each one bails at its next checkpoint.
        let tuners: Vec<thread::JoinHandle<()>> = self.inner.background.lock().drain(..).collect();
        for h in tuners {
            let _ = h.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsparse::FallbackLevel;
    use fs_matrix::gen::random_uniform;
    use fs_matrix::DenseMatrix;
    use std::time::Instant;

    fn engine(cfg: EngineConfig) -> (ServeEngine, MatrixInfo, CsrMatrix<f32>) {
        let e = ServeEngine::start(cfg);
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(96, 96, 800, 3));
        let info = e.register_matrix("t0", csr.clone()).expect("registered");
        (e, info, csr)
    }

    fn request(info: &MatrixInfo, n: usize) -> SpmmRequest {
        SpmmRequest {
            tenant: "t0".to_string(),
            matrix_id: info.id,
            b: DenseMatrix::from_fn(info.cols, n, |r, c| ((r + c) % 5) as f32 * 0.25),
            deadline: None,
        }
    }

    #[test]
    fn basic_request_roundtrip() {
        let (e, info, csr) = engine(EngineConfig::default());
        let outcome = e.spmm_blocking(request(&info, 16)).expect("admitted");
        let SpmmOutcome::Done(resp) = outcome else { panic!("expected Done") };
        assert_eq!(resp.out.rows(), 96);
        assert!(resp.counters.mma_count > 0);
        let reference = csr.spmm_reference(&request(&info, 16).b);
        assert!(resp.out.max_abs_diff(&reference) < 0.6);
        e.shutdown();
    }

    #[test]
    fn second_request_hits_the_cache() {
        let (e, info, _) = engine(EngineConfig::default());
        let first = e.spmm_blocking(request(&info, 16)).expect("admitted");
        let second = e.spmm_blocking(request(&info, 16)).expect("admitted");
        let (SpmmOutcome::Done(a), SpmmOutcome::Done(b)) = (first, second) else {
            panic!("expected Done")
        };
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        e.shutdown();
    }

    #[test]
    fn cold_engine_never_hits() {
        let (e, info, _) = engine(EngineConfig { cold: true, ..EngineConfig::default() });
        for _ in 0..3 {
            let outcome = e.spmm_blocking(request(&info, 8)).expect("admitted");
            let SpmmOutcome::Done(resp) = outcome else { panic!("expected Done") };
            assert!(!resp.cache_hit);
        }
        assert_eq!(e.cache_stats().hits, 0);
        e.shutdown();
    }

    #[test]
    fn unknown_matrix_and_bad_dims_are_rejected_at_admission() {
        let (e, info, _) = engine(EngineConfig::default());
        let mut bad = request(&info, 8);
        bad.matrix_id = 999;
        assert_eq!(e.submit(bad).err(), Some(SubmitError::UnknownMatrix(999)));
        let wrong = SpmmRequest {
            tenant: "t0".into(),
            matrix_id: info.id,
            b: DenseMatrix::zeros(7, 8),
            deadline: None,
        };
        assert!(matches!(e.submit(wrong), Err(SubmitError::DimensionMismatch { .. })));
        e.shutdown();
    }

    #[test]
    fn expired_deadline_sheds_the_request() {
        let (e, info, _) = engine(EngineConfig { workers: 1, ..EngineConfig::default() });
        // A zero deadline is already expired by the time a worker sees it.
        let mut req = request(&info, 8);
        req.deadline = Some(Duration::from_millis(0));
        // Saturate the worker briefly so the doomed request sits queued.
        let hold = e.submit(request(&info, 64)).expect("admitted");
        let doomed = e.submit(req).expect("admitted");
        let _ = hold.wait();
        assert!(matches!(doomed.wait(), SpmmOutcome::TimedOut));
        assert_eq!(e.tenant_stats("t0").timed_out, 1);
        e.shutdown();
    }

    #[test]
    fn queue_full_rejects() {
        let cfg = EngineConfig { workers: 1, queue_capacity: 1, ..EngineConfig::default() };
        let e = ServeEngine::start(cfg);
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(512, 512, 40_000, 3));
        let info = e.register_matrix("t0", csr).expect("registered");
        let req = || SpmmRequest {
            tenant: "t0".to_string(),
            matrix_id: info.id,
            b: DenseMatrix::from_fn(info.cols, 32, |r, c| ((r + c) % 5) as f32),
            deadline: None,
        };
        // Keep submitting until admission control pushes back.
        let mut tickets = Vec::new();
        let mut saw_reject = false;
        for _ in 0..64 {
            match e.submit(req()) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull) => {
                    saw_reject = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_reject, "bounded queue never pushed back");
        assert!(e.tenant_stats("t0").rejected >= 1);
        for t in tickets {
            let _ = t.wait();
        }
        e.shutdown();
    }

    #[test]
    fn panic_in_batch_is_isolated() {
        let (e, info, _) = engine(EngineConfig { workers: 1, ..EngineConfig::default() });
        let poison = e.submit_poison("t0", info.id, false).expect("admitted");
        assert!(matches!(poison.wait(), SpmmOutcome::Failed(_)));
        assert_eq!(e.worker_panics(), 1);
        // The same worker still serves normal requests.
        let outcome = e.spmm_blocking(request(&info, 8)).expect("admitted");
        assert!(matches!(outcome, SpmmOutcome::Done(_)));
        assert_eq!(e.tenant_stats("t0").failed, 1);
        e.shutdown();
    }

    #[test]
    fn escaped_panic_respawns_the_worker() {
        let (e, info, _) = engine(EngineConfig { workers: 1, ..EngineConfig::default() });
        let poison = e.submit_poison("t0", info.id, true).expect("admitted");
        assert!(matches!(poison.wait(), SpmmOutcome::Failed(_)));
        // Wait for the supervisor to notice and respawn.
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.worker_respawns() == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(e.worker_respawns(), 1);
        let outcome = e.spmm_blocking(request(&info, 8)).expect("admitted");
        assert!(matches!(outcome, SpmmOutcome::Done(_)));
        e.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (e, info, _) = engine(EngineConfig { workers: 2, ..EngineConfig::default() });
        let tickets: Vec<Ticket> =
            (0..8).map(|_| e.submit(request(&info, 16)).expect("admitted")).collect();
        e.shutdown();
        for t in tickets {
            assert!(matches!(t.wait(), SpmmOutcome::Done(_)), "queued request lost in drain");
        }
        assert!(e.submit(request(&info, 16)).is_err());
    }

    #[test]
    fn submit_after_shutdown_is_rejected_not_stranded() {
        let (e, info, _) = engine(EngineConfig::default());
        e.shutdown();
        // Admission must refuse — never enqueue into a drained pool where
        // no worker will ever pick the job up.
        assert_eq!(e.submit(request(&info, 8)).err(), Some(SubmitError::ShuttingDown));
        assert_eq!(e.queue_len(), 0, "no job may be stranded in the queue after shutdown");
    }

    #[test]
    fn registry_count_cap_rejects() {
        let e = ServeEngine::start(EngineConfig { max_matrices: 2, ..EngineConfig::default() });
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(32, 32, 100, 1));
        assert!(e.register_matrix("t", csr.clone()).is_ok());
        assert!(e.register_matrix("t", csr.clone()).is_ok());
        assert_eq!(
            e.register_matrix("t", csr).err(),
            Some(RegisterError::TooManyMatrices { limit: 2 })
        );
        assert_eq!(e.registered_stats().0, 2);
        e.shutdown();
    }

    #[test]
    fn registry_byte_cap_rejects() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(32, 32, 100, 1));
        let one = crate::cache::Footprint::footprint_bytes(&Registered::new(csr.clone()));
        let e = ServeEngine::start(EngineConfig {
            max_matrix_bytes: one + one / 2,
            ..EngineConfig::default()
        });
        assert!(e.register_matrix("t", csr.clone()).is_ok());
        assert!(matches!(
            e.register_matrix("t", csr).err(),
            Some(RegisterError::ByteBudgetExceeded { .. })
        ));
        let (count, bytes) = e.registered_stats();
        assert_eq!(count, 1);
        assert_eq!(bytes, one);
        e.shutdown();
    }

    #[test]
    fn verified_response_reports_its_rung() {
        let (e, info, csr) = engine(EngineConfig { verify: true, ..EngineConfig::default() });
        let outcome = e.spmm_blocking(request(&info, 16)).expect("admitted");
        let SpmmOutcome::Done(resp) = outcome else { panic!("expected Done") };
        assert!(resp.verified);
        assert_eq!(resp.fallback_level, FallbackLevel::Tuned);
        assert_eq!(e.resilience_stats(), (0, 0, 0, 0), "clean run needs no healing");
        let reference = csr.spmm_reference(&request(&info, 16).b);
        assert!(resp.out.max_abs_diff(&reference) < 0.6);
        e.shutdown();
    }

    #[test]
    fn impossible_tolerance_falls_back_and_trips_the_breaker() {
        let cfg = EngineConfig {
            workers: 1,
            verify: true,
            verify_tolerance: -1.0,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(600),
            ..EngineConfig::default()
        };
        let (e, info, csr) = engine(cfg);
        let reference = csr.spmm_reference(&request(&info, 8).b);
        for i in 0..4 {
            let outcome = e.spmm_blocking(request(&info, 8)).expect("admitted");
            let SpmmOutcome::Done(resp) = outcome else { panic!("expected Done") };
            // Every response still lands on the trusted scalar rung —
            // degraded, never wrong.
            assert_eq!(resp.fallback_level, FallbackLevel::Scalar, "request {i}");
            assert!(resp.verified);
            assert_eq!(resp.counters.mma_count, 0, "scalar rung never touches the TCU");
            assert_eq!(resp.out.to_f32_vec(), reference.to_f32_vec());
        }
        // Two ladder walks (2 rungs failing each) trip the threshold-2
        // breaker; the last two requests bypass straight to scalar.
        assert_eq!(e.breaker_trips(), 1);
        let (verify_failures, _, scalar, bypasses) = e.resilience_stats();
        assert_eq!(verify_failures, 4);
        assert_eq!(scalar, 2);
        assert_eq!(bypasses, 2);
        let j = e.metrics_json();
        assert!(j.contains("\"resilience\":{\"verify\":true"));
        assert!(j.contains("\"breaker_trips\":1"));
        e.shutdown();
    }

    #[test]
    fn metrics_json_is_well_formed() {
        let (e, info, _) = engine(EngineConfig::default());
        // The whole document before any request, byte for byte; the GPU
        // description and the fault report belong to other crates.
        let fresh = concat!(
            r#"{"cache":{"hits":0,"misses":0,"evictions":0,"rejected_oversize":0,"entries":0,"#,
            r#""resident_bytes":0,"budget_bytes":268435456,"hit_rate":1.000000},"#,
            r#""engine":{"workers":4,"queue_capacity":256,"queue_len":0,"max_batch":16,"#,
            r#""cold":false,"gpu":"<gpu>","registered_matrices":1,"registered_bytes":6848,"#,
            r#""max_matrices":1024,"max_matrix_bytes":1073741824,"worker_panics":0,"#,
            r#""worker_respawns":0},"#,
            r#""resilience":{"verify":false,"verify_failures":0,"fallbacks_default":0,"#,
            r#""fallbacks_scalar":0,"breaker_trips":0,"breaker_bypasses":0},"#,
            r#""exec":{"fast":0,"simulate":0,"validate_skips":0},"#,
            r#""pipeline":{"enabled":true,"overlaps":0},"#,
            r#""gnn":{"models":0,"model_bytes":0,"max_models":64,"max_model_bytes":268435456,"#,
            r#""cache":{"entries":0,"resident_bytes":0,"budget_bytes":67108864,"hits":0,"#,
            r#""misses":0,"evictions":0,"invalidations":0},"verify_retries":0,"#,
            r#""verify_failures":0},"#,
            r#""chaos":{"enabled":false,"plan":null,"faults":<faults>},"#,
            r#""trace":{"armed":false,"spans":0},"tenants":{}}"#,
        )
        .replace("<gpu>", &crate::metrics::json_escape(&format!("{:?}", GpuSpec::RTX4090)))
        .replace("<faults>", &fs_chaos::report().to_json());
        assert_eq!(e.metrics_json(), fresh);
        let _ = e.spmm_blocking(request(&info, 8));
        let j = e.metrics_json();
        assert!(j.contains("\"cache\":{"));
        assert!(j.contains("\"exec\":{\"fast\":"));
        assert!(j.contains("\"tenants\":{\"t0\":{"));
        assert!(j.contains("\"counters\":{\"mma_count\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        e.shutdown();
    }

    #[test]
    fn cold_miss_takes_the_overlapped_path() {
        let (e, info, csr) = engine(EngineConfig::default());
        let first = e.spmm_blocking(request(&info, 16)).expect("admitted");
        let SpmmOutcome::Done(resp) = first else { panic!("expected Done") };
        // The miss ran the overlapped engine: FALLBACK variant, honest
        // fallback level, correct numbers, no cache hit.
        assert!(!resp.cache_hit);
        assert_eq!(resp.fallback_level, FallbackLevel::Default);
        assert_eq!(e.overlap_count(), 1);
        assert!(resp.counters.mma_count > 0);
        let reference = csr.spmm_reference(&request(&info, 16).b);
        assert!(resp.out.max_abs_diff(&reference) < 0.6);
        // The assembled format was cached: the next request hits and
        // does not overlap again.
        let second = e.spmm_blocking(request(&info, 16)).expect("admitted");
        let SpmmOutcome::Done(resp2) = second else { panic!("expected Done") };
        assert!(resp2.cache_hit);
        assert_eq!(e.overlap_count(), 1);
        let j = e.metrics_json();
        assert!(j.contains("\"pipeline\":{\"enabled\":true,\"overlaps\":1}"), "{j}");
        e.shutdown();
    }

    #[test]
    fn pipeline_off_restores_the_classic_cold_path() {
        let (e, info, _) = engine(EngineConfig { pipeline: false, ..EngineConfig::default() });
        for _ in 0..2 {
            let outcome = e.spmm_blocking(request(&info, 16)).expect("admitted");
            let SpmmOutcome::Done(resp) = outcome else { panic!("expected Done") };
            assert_eq!(resp.fallback_level, FallbackLevel::Tuned);
        }
        assert_eq!(e.overlap_count(), 0);
        assert!(e.metrics_json().contains("\"pipeline\":{\"enabled\":false,\"overlaps\":0}"));
        e.shutdown();
    }

    #[test]
    fn background_tuner_upgrades_the_cached_entry() {
        let (e, info, _) = engine(EngineConfig::default());
        let outcome = e.spmm_blocking(request(&info, 16)).expect("admitted");
        assert!(matches!(outcome, SpmmOutcome::Done(_)));
        // The overlapped miss cached the FALLBACK entry (sampled_time 0);
        // the background tuner replaces it with the auto-tuned one, whose
        // cost-model sample is always positive.
        let deadline = Instant::now() + Duration::from_secs(10);
        let upgraded = loop {
            let entry = e.inner.cache.lock().get(&info.fingerprint);
            let tuned = entry.is_some_and(|f| f.choice.sampled_time > 0.0);
            if tuned || Instant::now() > deadline {
                break tuned;
            }
            thread::sleep(Duration::from_millis(10));
        };
        assert!(upgraded, "background tuner never replaced the FALLBACK entry");
        assert_eq!(e.cache_stats().entries, 1, "upgrade replaces, never duplicates");
        e.shutdown();
    }

    #[test]
    fn cold_engine_overlaps_every_request_and_spawns_no_tuner() {
        let (e, info, _) = engine(EngineConfig { cold: true, ..EngineConfig::default() });
        for _ in 0..3 {
            let outcome = e.spmm_blocking(request(&info, 8)).expect("admitted");
            assert!(matches!(outcome, SpmmOutcome::Done(_)));
        }
        assert_eq!(e.overlap_count(), 3);
        assert!(e.inner.background.lock().is_empty(), "cold engines never tune in background");
        e.shutdown();
    }

    #[test]
    fn exec_stats_count_every_tcu_launch() {
        let (e, info, _) = engine(EngineConfig::default());
        for _ in 0..5 {
            let outcome = e.spmm_blocking(request(&info, 8)).expect("admitted");
            assert!(matches!(outcome, SpmmOutcome::Done(_)));
        }
        let (fast, simulate, skips) = e.exec_stats();
        // Every launch lands in exactly one mode bucket (concurrent tests
        // in this binary may arm chaos, flipping the auto selection, so
        // only the sum is pinned); validate skips happen only on fast
        // launches, and translation always sets the witness, so every
        // fast launch skips.
        assert_eq!(fast + simulate, 5);
        assert_eq!(skips, fast);
        e.shutdown();
    }
}
