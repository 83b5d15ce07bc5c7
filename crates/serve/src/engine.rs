//! The serving engine: registered matrices, a bounded request queue, and
//! a micro-batching worker pool.
//!
//! The execution model mirrors what GNN-inference serving needs (the
//! paper's Fig. 16 end-to-end setting): a graph's adjacency matrix is
//! registered once, then answers many SpMM requests. The engine
//!
//! * admits requests into a **bounded queue** — a full queue rejects at
//!   submit time (backpressure, not unbounded memory growth);
//! * **micro-batches** adjacent requests against the same matrix, so the
//!   per-launch setup (format resolution, cache traffic) is paid once per
//!   batch rather than once per request;
//! * sheds requests whose **deadline** expired while they queued;
//! * **isolates panics** to the batch that caused them (the worker
//!   survives), and a supervisor respawns any worker that dies anyway;
//! * drains the queue on shutdown before joining the pool;
//! * optionally **verifies** every response against the scalar CSR
//!   reference and walks the `flashsparse::resilient` fallback ladder on
//!   mismatch, with a per-matrix [`fs_chaos::CircuitBreaker`] that routes
//!   persistently failing matrices straight to the trusted scalar path.
//!
//! Under an installed [`fs_chaos::FaultPlan`], workers additionally
//! evaluate per-request kill/stall draws, exercising the supervisor and
//! client retry machinery on demand.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use flashsparse::{
    auto_tune, spmm_overlapped, spmm_resilient, ExecMode, FallbackLevel, SchedMode,
    TranslatedMatrix, TuneChoice, VerifyPolicy,
};
use fs_chaos::{BreakerConfig, CircuitBreaker, FaultSite};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_tcu::{GpuSpec, KernelCounters};
use fs_trace::export::JsonWriter;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheStats, CachedFormat, FormatCache};
use crate::fingerprint::Fingerprint;
use crate::gnn_infer::{
    GnnConfig, GnnError, GnnInferRequest, GnnInferResponse, GnnModelInfo, GnnState,
};
use crate::metrics::{tenants_json, TenantStats};
use fs_gnn::GnnWeights;

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

/// What a registered matrix looks like to clients.
#[derive(Clone, Copy, Debug)]
pub struct MatrixInfo {
    /// Engine-assigned handle used by subsequent requests.
    pub id: u64,
    /// Content fingerprint (the cache key — shared across tenants).
    pub fingerprint: Fingerprint,
    /// Rows of the sparse matrix.
    pub rows: usize,
    /// Columns of the sparse matrix.
    pub cols: usize,
    /// Nonzeros of the sparse matrix.
    pub nnz: usize,
}

/// Why [`ServeEngine::register_matrix`] refused a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegisterError {
    /// The registry already holds `max_matrices` entries.
    TooManyMatrices {
        /// The configured count cap.
        limit: usize,
    },
    /// Registering this matrix would exceed `max_matrix_bytes`.
    ByteBudgetExceeded {
        /// The configured byte cap.
        limit: usize,
        /// Bytes already resident.
        resident: usize,
        /// Bytes this matrix needs.
        need: usize,
    },
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::TooManyMatrices { limit } => {
                write!(f, "matrix registry full ({limit} matrices)")
            }
            RegisterError::ByteBudgetExceeded { limit, resident, need } => {
                write!(
                    f,
                    "matrix registry byte budget exhausted ({resident} of {limit} bytes resident, \
                     {need} more needed)"
                )
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why a submit was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later (backpressure).
    QueueFull,
    /// The engine is draining.
    ShuttingDown,
    /// No matrix registered under this id.
    UnknownMatrix(u64),
    /// The dense operand's row count must equal the matrix's column count.
    DimensionMismatch {
        /// Rows the operand must have.
        expected_rows: usize,
        /// Rows it had.
        got: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::ShuttingDown => write!(f, "shutting down"),
            SubmitError::UnknownMatrix(id) => write!(f, "unknown matrix id {id}"),
            SubmitError::DimensionMismatch { expected_rows, got } => {
                write!(f, "dense operand has {got} rows, matrix needs {expected_rows}")
            }
        }
    }
}

/// A successful SpMM execution.
#[derive(Clone, Debug)]
pub struct SpmmResponse {
    /// The product, widened to f32.
    pub out: DenseMatrix<f32>,
    /// Counters of this request's kernel execution.
    pub counters: KernelCounters,
    /// Whether the translated format came from the cache.
    pub cache_hit: bool,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
    /// Microseconds spent queued before execution started.
    pub queue_micros: u64,
    /// Microseconds of kernel execution (batch-resolution included).
    pub service_micros: u64,
    /// Which rung of the fallback ladder produced the output.
    pub fallback_level: FallbackLevel,
    /// Whether the output was verified against (or produced by) the
    /// scalar reference. `false` when the engine runs with `verify` off.
    pub verified: bool,
}

/// Terminal state of an admitted request.
#[derive(Clone, Debug)]
pub enum SpmmOutcome {
    /// Executed.
    Done(SpmmResponse),
    /// Shed: the deadline passed while the request was queued.
    TimedOut,
    /// A worker panic or internal error consumed the request.
    Failed(String),
}

/// An SpMM request for [`ServeEngine::submit`].
#[derive(Clone, Debug)]
pub struct SpmmRequest {
    /// Tenant the work is accounted to.
    pub tenant: String,
    /// Handle from [`ServeEngine::register_matrix`].
    pub matrix_id: u64,
    /// Dense operand (`matrix.cols × n`).
    pub b: DenseMatrix<f32>,
    /// Per-request deadline; `None` uses the engine default.
    pub deadline: Option<Duration>,
}

/// Handle to an admitted request's eventual outcome.
pub struct Ticket {
    rx: mpsc::Receiver<SpmmOutcome>,
}

impl Ticket {
    /// Block until the outcome arrives. A dropped worker (killed by an
    /// escaped panic before replying) reports as `Failed`.
    pub fn wait(self) -> SpmmOutcome {
        self.rx
            .recv()
            .unwrap_or_else(|_| SpmmOutcome::Failed("response channel closed".to_string()))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobOp {
    Spmm,
    /// Test hook: panic inside the batch-execution unwind boundary.
    PanicInBatch,
    /// Test hook: panic outside it, killing the worker thread.
    PanicWorker,
}

struct Job {
    tenant: String,
    matrix_id: u64,
    op: JobOp,
    b: DenseMatrix<f32>,
    deadline: Instant,
    enqueued: Instant,
    tx: mpsc::Sender<SpmmOutcome>,
}

struct Registered {
    fingerprint: Fingerprint,
    csr: CsrMatrix<f32>,
    /// Lazily built [`TuneChoice::FALLBACK`] translation — the middle
    /// rung of the ladder. Built at most once per registered matrix, on
    /// the first verification failure that needs it.
    fallback: OnceLock<TranslatedMatrix>,
}

impl Registered {
    fn fallback_format(&self) -> &TranslatedMatrix {
        self.fallback.get_or_init(|| TranslatedMatrix::translate(&self.csr, &TuneChoice::FALLBACK))
    }
}

/// Bytes a registered CSR keeps resident: row pointers, column indices,
/// and values.
fn csr_resident_bytes(csr: &CsrMatrix<f32>) -> usize {
    (csr.rows() + 1) * std::mem::size_of::<usize>()
        + csr.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
}

#[derive(Default)]
struct Registry {
    map: HashMap<u64, Arc<Registered>>,
    resident_bytes: usize,
}

struct Inner {
    cfg: EngineConfig,
    queue: StdMutex<VecDeque<Job>>,
    available: Condvar,
    matrices: RwLock<Registry>,
    cache: Mutex<FormatCache>,
    tenants: Mutex<HashMap<String, TenantStats>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    breakers: Mutex<HashMap<u64, CircuitBreaker>>,
    verify_failures: AtomicU64,
    fallbacks_default: AtomicU64,
    fallbacks_scalar: AtomicU64,
    breaker_bypasses: AtomicU64,
    exec_fast: AtomicU64,
    exec_simulate: AtomicU64,
    validate_skips: AtomicU64,
    overlaps: AtomicU64,
    /// GNN serving state: model registry + embedding cache.
    gnn: GnnState,
    /// Background format-upgrade threads spawned by the overlapped cold
    /// path; reaped opportunistically and joined on shutdown.
    background: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Inner {
    fn breaker_config(&self) -> BreakerConfig {
        BreakerConfig { threshold: self.cfg.breaker_threshold, cooldown: self.cfg.breaker_cooldown }
    }
}

/// Recover a guard from a poisoned std mutex: the queue holds plain data
/// (no invariants spanning the lock), so continuing past a worker panic
/// is sound and exactly what panic isolation wants.
fn lock_recover<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The multi-tenant batched SpMM serving engine.
pub struct ServeEngine {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<Option<thread::JoinHandle<()>>>>>,
    monitor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl ServeEngine {
    /// Start the engine: spawn the worker pool and its supervisor.
    pub fn start(mut cfg: EngineConfig) -> ServeEngine {
        cfg.workers = cfg.workers.max(1);
        cfg.max_batch = cfg.max_batch.max(1);
        let budget = if cfg.cold { 0 } else { cfg.cache_budget_bytes };
        let inner = Arc::new(Inner {
            cfg,
            queue: StdMutex::new(VecDeque::new()),
            available: Condvar::new(),
            matrices: RwLock::new(Registry::default()),
            cache: Mutex::new(FormatCache::new(budget)),
            tenants: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
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
            background: Mutex::new(Vec::new()),
        });
        let workers = Arc::new(Mutex::new(
            (0..cfg.workers).map(|_| Some(spawn_worker(Arc::clone(&inner)))).collect::<Vec<_>>(),
        ));
        let monitor = spawn_monitor(Arc::clone(&inner), Arc::clone(&workers));
        ServeEngine { inner, workers, monitor: Mutex::new(Some(monitor)) }
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
        let need = csr_resident_bytes(&csr);
        let fingerprint = Fingerprint::of(&csr);
        let mut registry = self.inner.matrices.write();
        if registry.map.len() >= self.inner.cfg.max_matrices {
            return Err(RegisterError::TooManyMatrices { limit: self.inner.cfg.max_matrices });
        }
        if need > self.inner.cfg.max_matrix_bytes.saturating_sub(registry.resident_bytes) {
            return Err(RegisterError::ByteBudgetExceeded {
                limit: self.inner.cfg.max_matrix_bytes,
                resident: registry.resident_bytes,
                need,
            });
        }
        let info = MatrixInfo {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            fingerprint,
            rows: csr.rows(),
            cols: csr.cols(),
            nnz: csr.nnz(),
        };
        registry.resident_bytes += need;
        registry
            .map
            .insert(info.id, Arc::new(Registered { fingerprint, csr, fallback: OnceLock::new() }));
        Ok(info)
    }

    /// Registered-matrix totals: `(count, resident CSR bytes)`.
    pub fn registered_stats(&self) -> (usize, usize) {
        let registry = self.inner.matrices.read();
        (registry.map.len(), registry.resident_bytes)
    }

    /// Every resident matrix as `(fingerprint_hi, fingerprint_lo, id)`,
    /// ascending by id — the anti-entropy inventory a shard reports when
    /// a router asks who is already home.
    pub fn resident_matrices(&self) -> Vec<(u64, u64, u64)> {
        let registry = self.inner.matrices.read();
        let mut out: Vec<(u64, u64, u64)> = registry
            .map
            .iter()
            .map(|(&id, reg)| (reg.fingerprint.hi(), reg.fingerprint.lo(), id))
            .collect();
        out.sort_unstable_by_key(|&(_, _, id)| id);
        out
    }

    /// Export a registered matrix's `(rows, cols, COO entries)` in CSR
    /// iteration order — the repair path's source copy. `None` when the
    /// id is unknown.
    pub fn export_matrix(&self, matrix_id: u64) -> Option<(usize, usize, Vec<(u32, u32, f32)>)> {
        let reg = self.inner.matrices.read().map.get(&matrix_id).cloned()?;
        let csr = &reg.csr;
        let mut entries = Vec::with_capacity(csr.nnz());
        for r in 0..csr.rows() {
            for (&c, &v) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
                entries.push((r as u32, c, v)); // lint: checked-cast rows capped at u32 by Load
            }
        }
        Some((csr.rows(), csr.cols(), entries))
    }

    /// Drop a registered matrix, releasing its resident-byte budget and
    /// its circuit breaker. Returns whether it existed. In-flight
    /// requests holding the `Arc` finish against the old copy.
    pub fn evict_matrix(&self, matrix_id: u64) -> bool {
        let mut registry = self.inner.matrices.write();
        match registry.map.remove(&matrix_id) {
            Some(reg) => {
                registry.resident_bytes =
                    registry.resident_bytes.saturating_sub(csr_resident_bytes(&reg.csr));
                drop(registry);
                self.inner.breakers.lock().remove(&matrix_id);
                // Models bound to the evicted graph keep their weights but
                // lose their cached embeddings: the graph can come back
                // under a different id with different content.
                self.inner.gnn.invalidate_matrix(matrix_id);
                true
            }
            None => false,
        }
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
        let reg = self
            .inner
            .matrices
            .read()
            .map
            .get(&matrix_id)
            .cloned()
            .ok_or(GnnError::UnknownGraph(matrix_id))?;
        self.inner.gnn.register(matrix_id, reg.csr.rows(), weights)
    }

    /// Run one GNN inference: a full multi-layer forward pass over the
    /// model's registered graph at the requested precision, returning
    /// scores for the requested nodes (all nodes when `node_ids` is
    /// empty). Synchronous — GNN inference is latency-bound on the
    /// forward pass itself, so it bypasses the SpMM micro-batch queue;
    /// the deadline is still honored (checked after execution).
    pub fn gnn_infer(&self, req: GnnInferRequest) -> Result<GnnInferResponse, GnnError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(GnnError::Internal("shutting down".into()));
        }
        let matrix_id =
            self.inner.gnn.model_graph(req.model_id).ok_or(GnnError::UnknownModel(req.model_id))?;
        let reg = self
            .inner
            .matrices
            .read()
            .map
            .get(&matrix_id)
            .cloned()
            .ok_or(GnnError::UnknownGraph(matrix_id))?;
        let deadline = req.deadline.unwrap_or(self.inner.cfg.default_deadline);
        let started = Instant::now();
        let out = self.inner.gnn.infer(
            req.model_id,
            &reg.csr,
            self.inner.cfg.gpu,
            self.inner.cfg.verify,
            req.precision,
            &req.node_ids,
            &req.features,
        )?;
        if started.elapsed() > deadline {
            return Err(GnnError::DeadlineExceeded);
        }
        Ok(out)
    }

    /// Registered-model totals: `(count, resident parameter bytes)`.
    pub fn gnn_model_stats(&self) -> (usize, usize) {
        self.inner.gnn.model_stats()
    }

    /// Admit a request. `Err` means the request was *not* queued.
    pub fn submit(&self, req: SpmmRequest) -> Result<Ticket, SubmitError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let reg = self
            .inner
            .matrices
            .read()
            .map
            .get(&req.matrix_id)
            .cloned()
            .ok_or(SubmitError::UnknownMatrix(req.matrix_id))?;
        if req.b.rows() != reg.csr.cols() {
            return Err(SubmitError::DimensionMismatch {
                expected_rows: reg.csr.cols(),
                got: req.b.rows(),
            });
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let job = Job {
            tenant: req.tenant.clone(),
            matrix_id: req.matrix_id,
            op: JobOp::Spmm,
            b: req.b,
            deadline: now + req.deadline.unwrap_or(self.inner.cfg.default_deadline),
            enqueued: now,
            tx,
        };
        self.enqueue(job, &req.tenant)?;
        Ok(Ticket { rx })
    }

    fn enqueue(&self, job: Job, tenant: &str) -> Result<(), SubmitError> {
        let accepted = {
            let mut q = lock_recover(&self.inner.queue);
            // Re-check shutdown *under the queue lock*: a worker only
            // exits after observing empty-queue + shutdown while holding
            // this lock, so a push that wins the lock before that
            // observation is guaranteed to be drained, and one that loses
            // it is rejected here instead of stranding the caller.
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            if q.len() >= self.inner.cfg.queue_capacity {
                false
            } else {
                q.push_back(job);
                true
            }
        };
        let mut tenants = self.inner.tenants.lock();
        let stats = tenants.entry(tenant.to_string()).or_default();
        if accepted {
            stats.submitted += 1;
            drop(tenants);
            self.inner.available.notify_one();
            Ok(())
        } else {
            stats.rejected += 1;
            Err(SubmitError::QueueFull)
        }
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
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let job = Job {
            tenant: tenant.to_string(),
            matrix_id,
            op: if escape_worker { JobOp::PanicWorker } else { JobOp::PanicInBatch },
            b: DenseMatrix::zeros(0, 0),
            deadline: now + self.inner.cfg.default_deadline,
            enqueued: now,
            tx,
        };
        self.enqueue(job, tenant)?;
        Ok(Ticket { rx })
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
    /// pipelined engine answered via [`spmm_overlapped`].
    pub fn overlap_count(&self) -> u64 {
        self.inner.overlaps.load(Ordering::Relaxed)
    }

    /// Circuit-breaker trips summed over every registered matrix.
    pub fn breaker_trips(&self) -> u64 {
        self.inner.breakers.lock().values().map(CircuitBreaker::trips).sum()
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        lock_recover(&self.inner.queue).len()
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
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.available.notify_all();
        if let Some(m) = self.monitor.lock().take() {
            let _ = m.join();
        }
        let handles: Vec<thread::JoinHandle<()>> =
            self.workers.lock().iter_mut().filter_map(Option::take).collect();
        for h in handles {
            let _ = h.join();
        }
        // Join background tuners after the workers: the shutdown flag is
        // already set, so each one bails at its next checkpoint.
        let tuners: Vec<thread::JoinHandle<()>> = self.inner.background.lock().drain(..).collect();
        for h in tuners {
            let _ = h.join();
        }
        // Belt and braces for the submit/shutdown race: fail any job that
        // slipped into the queue after the workers drained it, so no
        // `Ticket::wait` blocks forever on a sender parked in the queue.
        let leftovers: Vec<Job> = lock_recover(&self.inner.queue).drain(..).collect();
        for job in leftovers {
            self.inner.tenants.lock().entry(job.tenant.clone()).or_default().failed += 1;
            let _ = job.tx.send(SpmmOutcome::Failed("engine shut down before execution".into()));
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_worker(inner: Arc<Inner>) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("fs-serve-worker".to_string())
        .spawn(move || worker_loop(&inner))
        .unwrap_or_else(|e| panic!("failed to spawn worker thread: {e}")) // lint: allow-panic - thread spawn failure at startup is unrecoverable
}

fn spawn_monitor(
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<Option<thread::JoinHandle<()>>>>>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("fs-serve-monitor".to_string())
        .spawn(move || {
            while !inner.shutdown.load(Ordering::Acquire) {
                {
                    let mut pool = workers.lock();
                    for slot in pool.iter_mut() {
                        let dead = slot.as_ref().is_some_and(|h| h.is_finished());
                        if dead && !inner.shutdown.load(Ordering::Acquire) {
                            if let Some(h) = slot.take() {
                                // The worker died from an escaped panic:
                                // count it and put a fresh one in its slot.
                                let _ = h.join();
                                inner.worker_panics.fetch_add(1, Ordering::Relaxed);
                                inner.worker_respawns.fetch_add(1, Ordering::Relaxed);
                                *slot = Some(spawn_worker(Arc::clone(&inner)));
                            }
                        }
                    }
                }
                thread::sleep(Duration::from_millis(20));
            }
        })
        .unwrap_or_else(|e| panic!("failed to spawn monitor thread: {e}")) // lint: allow-panic - thread spawn failure at startup is unrecoverable
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let Some(batch) = next_batch(inner) else { return };
        if fs_chaos::chaos_enabled() {
            chaos_worker_faults(&batch);
        }
        // The PanicWorker test hook escapes the unwind boundary on
        // purpose: the thread dies and the supervisor must respawn it.
        if batch.iter().any(|j| j.op == JobOp::PanicWorker) {
            panic!("poison request escaped the batch boundary (test hook)");
        }
        run_batch(inner, batch);
    }
}

/// Evaluate the worker-level chaos draws — one stall and one kill draw
/// *per job*, all up front, so the evaluation count depends only on how
/// many requests flowed through, never on batch composition or on an
/// early kill. A fired kill panics out of the worker loop (outside the
/// batch unwind boundary): the jobs in hand drop, their clients see a
/// failure, and the supervisor respawns the slot — exactly the crash the
/// retry machinery must absorb.
#[cold]
fn chaos_worker_faults(batch: &[Job]) {
    let mut stalls = 0u32;
    let mut killed = false;
    for _ in batch {
        if fs_chaos::draw(FaultSite::WorkerStall).is_some() {
            stalls += 1;
        }
        if fs_chaos::draw(FaultSite::WorkerKill).is_some() {
            killed = true;
        }
    }
    if stalls > 0 {
        thread::sleep(fs_chaos::stall_duration() * stalls);
    }
    if killed {
        panic!("chaos: worker kill injected"); // lint: allow-panic - injected crash; the supervisor respawns the worker
    }
}

/// Pop the next micro-batch: the frontmost job plus up to `max_batch - 1`
/// queued jobs against the same matrix (in arrival order). Blocks while
/// the queue is empty; returns `None` once the engine drains.
fn next_batch(inner: &Arc<Inner>) -> Option<Vec<Job>> {
    let mut q = lock_recover(&inner.queue);
    loop {
        if let Some(first) = q.pop_front() {
            let matrix_id = first.matrix_id;
            let mut batch = vec![first];
            let mut i = 0;
            while i < q.len() && batch.len() < inner.cfg.max_batch {
                if q[i].matrix_id == matrix_id && q[i].op == JobOp::Spmm {
                    if let Some(job) = q.remove(i) {
                        batch.push(job);
                    }
                } else {
                    i += 1;
                }
            }
            return Some(batch);
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let (guard, _) = inner
            .available
            .wait_timeout(q, Duration::from_millis(50))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q = guard;
    }
}

fn run_batch(inner: &Arc<Inner>, batch: Vec<Job>) {
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        if now > job.deadline {
            inner.tenants.lock().entry(job.tenant.clone()).or_default().timed_out += 1;
            let _ = job.tx.send(SpmmOutcome::TimedOut);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    let batch_size = live.len();
    let _batch_span = fs_trace::span(fs_trace::Site::ServeBatch);
    let started = Instant::now();
    // lint: counted-catch - Err is counted into worker_panics below and the monitor respawns the worker
    let result = catch_unwind(AssertUnwindSafe(|| execute_batch(inner, &live)));
    let service_micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    match result {
        Ok((outputs, cache_hit)) => {
            for (job, exec) in live.into_iter().zip(outputs) {
                let queued = started.duration_since(job.enqueued);
                fs_trace::record_duration(fs_trace::Site::ServeQueue, queued);
                let queue_micros = queued.as_micros().min(u128::from(u64::MAX)) as u64;
                {
                    let mut tenants = inner.tenants.lock();
                    let t = tenants.entry(job.tenant.clone()).or_default();
                    t.completed += 1;
                    t.counters += exec.counters;
                }
                let _ = job.tx.send(SpmmOutcome::Done(SpmmResponse {
                    out: exec.out,
                    counters: exec.counters,
                    cache_hit,
                    batch_size,
                    queue_micros,
                    service_micros,
                    fallback_level: exec.fallback_level,
                    verified: exec.verified,
                }));
            }
        }
        Err(_) => {
            inner.worker_panics.fetch_add(1, Ordering::Relaxed);
            for job in live {
                inner.tenants.lock().entry(job.tenant.clone()).or_default().failed += 1;
                let _ = job
                    .tx
                    .send(SpmmOutcome::Failed("worker panicked during batch execution".into()));
            }
        }
    }
}

/// One executed request: the output plus its provenance.
struct Executed {
    out: DenseMatrix<f32>,
    counters: KernelCounters,
    fallback_level: FallbackLevel,
    verified: bool,
}

/// Resolve the translated format for the batch (cache hit or
/// translate + tune), then run every request against it — through the
/// verify-and-fall-back ladder when the engine runs with `verify` on.
fn execute_batch(inner: &Arc<Inner>, batch: &[Job]) -> (Vec<Executed>, bool) {
    let _span = fs_trace::span(fs_trace::Site::ServeExecute);
    let matrix_id = batch[0].matrix_id;
    let reg = inner
        .matrices
        .read()
        .map
        .get(&matrix_id)
        .cloned()
        .unwrap_or_else(|| panic!("matrix {matrix_id} disappeared")); // lint: allow-panic - registration precedes admission; caught by the batch unwind boundary
    let mut batches_stats = inner.tenants.lock();
    for job in batch {
        let t = batches_stats.entry(job.tenant.clone()).or_default();
        t.batches += 1;
        t.max_batch = t.max_batch.max(batch.len() as u64);
    }
    drop(batches_stats);

    // An open breaker routes the whole batch to the trusted scalar path
    // without touching the TCU (or the cache — no format resolution).
    if inner.cfg.verify && breaker_bypasses(inner, matrix_id) {
        inner.breaker_bypasses.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let outputs = batch
            .iter()
            .map(|job| {
                if job.op == JobOp::PanicInBatch {
                    panic!("poison request (test hook)");
                }
                Executed {
                    out: reg.csr.spmm_reference(&job.b),
                    counters: KernelCounters::default(),
                    fallback_level: FallbackLevel::Scalar,
                    verified: true,
                }
            })
            .collect();
        return (outputs, false);
    }

    let n_hint = batch[0].b.cols().max(1);
    // One mode decision per batch: the switches it reads are process-wide
    // and launch-independent, so every launch below shares it.
    let mode = ExecMode::auto();
    // The overlapped cold path only serves plain fast-mode SpMM: verify
    // needs the resilient ladder, simulate needs the classic dispatch,
    // and poison test hooks must panic inside the ordinary batch body.
    let overlap_ok = inner.cfg.pipeline
        && !inner.cfg.verify
        && mode.is_fast()
        && batch.iter().all(|j| j.op == JobOp::Spmm);
    let (format, cache_hit) = if overlap_ok {
        // Peek the cache directly: a hit is the ordinary warm path, a
        // miss hands the whole batch to the overlapped engine (which
        // does its own translate), so resolve_format's tune+translate
        // must not run here.
        let peek = inner.cache.lock().get(&reg.fingerprint);
        match peek {
            Some(hit) => {
                fs_trace::add(fs_trace::TraceCounter::CacheHits, 1);
                (hit, true)
            }
            None => {
                fs_trace::add(fs_trace::TraceCounter::CacheMisses, 1);
                return execute_overlapped(inner, &reg, batch, n_hint);
            }
        }
    } else {
        resolve_format(inner, &reg, n_hint)
    };
    match mode {
        ExecMode::Fast => inner.exec_fast.fetch_add(batch.len() as u64, Ordering::Relaxed),
        ExecMode::Simulate => inner.exec_simulate.fetch_add(batch.len() as u64, Ordering::Relaxed),
    };
    if mode.is_fast() && format.translated.is_validated() {
        // Fast launches on a witnessed cached format skip the per-launch
        // validation walk entirely — the cache's validate-once payoff.
        inner.validate_skips.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    let policy = VerifyPolicy {
        sample_rows: inner.cfg.verify_sample_rows,
        tolerance: inner.cfg.verify_tolerance,
    };
    let outputs = batch
        .iter()
        .map(|job| {
            if job.op == JobOp::PanicInBatch {
                panic!("poison request (test hook)");
            }
            if inner.cfg.verify {
                let (out, counters, report) = spmm_resilient(
                    &reg.csr,
                    &format.translated,
                    &format.choice,
                    Some(reg.fallback_format()),
                    &job.b,
                    &policy,
                );
                record_resilience(inner, matrix_id, &report);
                Executed { out, counters, fallback_level: report.level, verified: true }
            } else {
                let (out, counters) = format.translated.spmm_f32(&job.b, format.choice.mapping);
                Executed { out, counters, fallback_level: FallbackLevel::Tuned, verified: false }
            }
        })
        .collect();
    (outputs, cache_hit)
}

/// The overlapped cold path: the first request of the batch executes via
/// [`spmm_overlapped`] — SpMM runs over ME-BCRS slabs as the translation
/// of the *next* slab proceeds concurrently, with no auto-tune on the
/// critical path — and the remaining requests reuse the assembled
/// translation. The FALLBACK-variant result is cached immediately so the
/// very next request hits, and a background thread upgrades the entry to
/// the auto-tuned variant. Responses carry `FallbackLevel::Default`
/// because that is what ran: the default variant, not the tuned one.
fn execute_overlapped(
    inner: &Arc<Inner>,
    reg: &Arc<Registered>,
    batch: &[Job],
    n_hint: usize,
) -> (Vec<Executed>, bool) {
    inner.overlaps.fetch_add(1, Ordering::Relaxed);
    inner.exec_fast.fetch_add(batch.len() as u64, Ordering::Relaxed);
    let choice = TuneChoice::FALLBACK;
    let sched = SchedMode::auto();
    let (first_out, first_counters, translated) =
        spmm_overlapped(&reg.csr, &batch[0].b, &choice, sched);
    let format = CachedFormat { translated, choice };
    if format.translated.is_validated() {
        // The slab translations were validated as they streamed in; the
        // assembled format keeps the witness, so every launch in this
        // batch skips the per-launch validation walk.
        inner.validate_skips.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    let mut outputs = Vec::with_capacity(batch.len());
    outputs.push(Executed {
        out: first_out,
        counters: first_counters,
        fallback_level: FallbackLevel::Default,
        verified: false,
    });
    for job in &batch[1..] {
        let (out, counters) = format.translated.spmm_f32(&job.b, choice.mapping);
        outputs.push(Executed {
            out,
            counters,
            fallback_level: FallbackLevel::Default,
            verified: false,
        });
    }
    if !inner.cfg.cold {
        inner.cache.lock().insert(reg.fingerprint, format);
        spawn_background_tune(inner, Arc::clone(reg), n_hint);
    }
    (outputs, false)
}

/// Upgrade the cached FALLBACK entry to the auto-tuned variant off the
/// request path. Shutdown is checked before each expensive step so a
/// draining engine is not held up by a tuner mid-flight; a failed spawn
/// just skips the upgrade (the FALLBACK entry keeps serving).
fn spawn_background_tune(inner: &Arc<Inner>, reg: Arc<Registered>, n_hint: usize) {
    let tuner_inner = Arc::clone(inner);
    let spawned = thread::Builder::new().name("fs-serve-tuner".to_string()).spawn(move || {
        if tuner_inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let choice = auto_tune(&reg.csr, n_hint, tuner_inner.cfg.gpu);
        if tuner_inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let translated = TranslatedMatrix::translate(&reg.csr, &choice);
        tuner_inner.cache.lock().replace(reg.fingerprint, CachedFormat { translated, choice });
    });
    let Ok(handle) = spawned else { return };
    // Reap finished tuners while we hold the lock anyway, so the handle
    // vector stays bounded by the number of in-flight upgrades.
    let mut background = inner.background.lock();
    let mut keep = Vec::with_capacity(background.len() + 1);
    for h in background.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            keep.push(h);
        }
    }
    keep.push(handle);
    *background = keep;
}

fn breaker_bypasses(inner: &Arc<Inner>, matrix_id: u64) -> bool {
    let cfg = inner.breaker_config();
    let mut breakers = inner.breakers.lock();
    breakers
        .entry(matrix_id)
        .or_insert_with(|| CircuitBreaker::new(cfg))
        .should_bypass(Instant::now())
}

fn record_resilience(inner: &Arc<Inner>, matrix_id: u64, report: &flashsparse::ResilientReport) {
    inner.verify_failures.fetch_add(u64::from(report.verify_failures), Ordering::Relaxed);
    match report.level {
        FallbackLevel::Tuned => {}
        FallbackLevel::Default => {
            inner.fallbacks_default.fetch_add(1, Ordering::Relaxed);
        }
        FallbackLevel::Scalar => {
            inner.fallbacks_scalar.fetch_add(1, Ordering::Relaxed);
        }
    }
    let cfg = inner.breaker_config();
    let mut breakers = inner.breakers.lock();
    let breaker = breakers.entry(matrix_id).or_insert_with(|| CircuitBreaker::new(cfg));
    if report.verify_failures > 0 {
        breaker.record_failure(Instant::now());
        drop(breakers);
        // The matrix's kernel output failed verification, so GNN
        // embeddings aggregated over it are no longer trusted either:
        // drop them so the next inference recomputes from scratch
        // (possibly on the scalar path the breaker now routes to).
        inner.gnn.invalidate_matrix(matrix_id);
    } else {
        breaker.record_success();
    }
}

fn resolve_format(
    inner: &Arc<Inner>,
    reg: &Registered,
    n_hint: usize,
) -> (Arc<CachedFormat>, bool) {
    if let Some(hit) = inner.cache.lock().get(&reg.fingerprint) {
        fs_trace::add(fs_trace::TraceCounter::CacheHits, 1);
        return (hit, true);
    }
    fs_trace::add(fs_trace::TraceCounter::CacheMisses, 1);
    // Miss: translate and tune *outside* the cache lock — this is the
    // expensive path the cache exists to amortize.
    let choice = auto_tune(&reg.csr, n_hint, inner.cfg.gpu);
    let translated = TranslatedMatrix::translate(&reg.csr, &choice);
    let arc = inner.cache.lock().insert(reg.fingerprint, CachedFormat { translated, choice });
    (arc, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::random_uniform;

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
        let one = csr_resident_bytes(&csr);
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
