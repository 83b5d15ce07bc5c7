//! The executor: one bounded job queue and the worker pool that drains
//! it. Every request that costs real work — an SpMM or a whole GNN
//! inference — is a `Job` here, so each guarantee below is written
//! once and holds for both:
//!
//! * **admission** — a full queue rejects at submit time (backpressure,
//!   not unbounded memory growth), and a draining engine admits nothing;
//! * **micro-batching** — adjacent SpMM jobs against the same matrix
//!   ride in one batch (a GNN inference is a batch of one);
//! * **deadlines** — a job whose deadline passed while it queued is shed
//!   at dequeue, before any work is done for it;
//! * **isolation** — a panic is caught at the batch boundary and fails
//!   only that batch; a supervisor respawns a worker that dies anyway;
//! * **chaos** — under an installed [`fs_chaos::FaultPlan`] workers draw
//!   one kill and one stall per job;
//! * **drain** — shutdown lets the workers finish the queue before they
//!   are joined;
//! * **accounting** — submitted / completed / failed / rejected /
//!   timed-out land in the job's tenant's stats.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use flashsparse::FallbackLevel;
use fs_chaos::FaultSite;
use fs_matrix::DenseMatrix;
use fs_tcu::KernelCounters;
use parking_lot::Mutex;

use crate::engine::Inner;
use crate::execute::{execute_batch, run_inference};
use crate::gnn_infer::{GnnError, GnnInferRequest, GnnInferResponse};

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

/// Terminal state of an admitted request whose answer is a `T`.
#[derive(Clone, Debug)]
pub enum Outcome<T> {
    /// Executed.
    Done(T),
    /// Shed: the deadline passed while the request was queued.
    TimedOut,
    /// A worker panic or internal error consumed the request.
    Failed(String),
}

/// Terminal state of an admitted SpMM request.
pub type SpmmOutcome = Outcome<SpmmResponse>;

/// An SpMM request for [`crate::ServeEngine::submit`].
#[derive(Clone, Debug)]
pub struct SpmmRequest {
    /// Tenant the work is accounted to.
    pub tenant: String,
    /// Handle from [`crate::ServeEngine::register_matrix`].
    pub matrix_id: u64,
    /// Dense operand (`matrix.cols × n`).
    pub b: DenseMatrix<f32>,
    /// Per-request deadline; `None` uses the engine default.
    pub deadline: Option<Duration>,
}

/// What a worker made of one job.
pub(crate) enum Reply {
    Spmm(SpmmResponse),
    Gnn(Result<GnnInferResponse, GnnError>),
}

/// Handle to an admitted request's eventual outcome.
pub struct Ticket {
    rx: mpsc::Receiver<Outcome<Reply>>,
}

impl Ticket {
    /// Block until the outcome arrives. A dropped worker (killed by an
    /// escaped panic before replying) reports as `Failed`.
    pub(crate) fn wait_reply(self) -> Outcome<Reply> {
        self.rx.recv().unwrap_or_else(|_| Outcome::Failed("response channel closed".to_string()))
    }

    /// Block until the SpMM outcome arrives. A dropped worker (killed by
    /// an escaped panic before replying) reports as `Failed`.
    pub fn wait(self) -> SpmmOutcome {
        match self.wait_reply() {
            Outcome::Done(Reply::Spmm(resp)) => Outcome::Done(resp),
            Outcome::Done(Reply::Gnn(_)) => Outcome::Failed("reply of the wrong kind".to_string()),
            Outcome::TimedOut => Outcome::TimedOut,
            Outcome::Failed(why) => Outcome::Failed(why),
        }
    }
}

/// What a job asks a worker to do.
pub(crate) enum Work {
    /// One SpMM against the job's matrix.
    Spmm(DenseMatrix<f32>),
    /// One whole GNN forward pass with the job's matrix as the graph.
    Gnn(GnnInferRequest),
    /// Test hook: panic inside the batch-execution unwind boundary.
    PanicInBatch,
    /// Test hook: panic outside it, killing the worker thread.
    PanicWorker,
}

pub(crate) struct Job {
    pub(crate) tenant: String,
    pub(crate) matrix_id: u64,
    pub(crate) work: Work,
    deadline: Instant,
    enqueued: Instant,
    tx: mpsc::Sender<Outcome<Reply>>,
}

/// Recover a guard from a poisoned std mutex: the queue holds plain data
/// (no invariants spanning the lock), so continuing past a worker panic
/// is sound and exactly what panic isolation wants.
fn lock_recover<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The bounded queue. The mutex and its poison recovery stay private to
/// this module: fs-analyze resolves `lock_recover` file-locally, so every
/// `queue` acquisition has to be written here to be seen.
pub(crate) struct JobQueue {
    queue: StdMutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    capacity: usize,
    max_batch: usize,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize, max_batch: usize) -> JobQueue {
        JobQueue {
            queue: StdMutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            capacity,
            max_batch,
        }
    }

    /// Whether the engine has begun draining.
    pub(crate) fn is_closed(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Stop admitting and wake every idle worker so it can drain and exit.
    pub(crate) fn close(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.available.notify_all();
    }

    /// Jobs currently queued.
    pub(crate) fn len(&self) -> usize {
        lock_recover(&self.queue).len()
    }

    fn push(&self, job: Job) -> Result<(), SubmitError> {
        let mut q = lock_recover(&self.queue);
        // Re-check shutdown *under the queue lock*: a worker only exits
        // after observing empty-queue + shutdown while holding this lock,
        // so a push that wins the lock before that observation is
        // guaranteed to be drained, and one that loses it is rejected
        // here instead of stranding the caller.
        if self.is_closed() {
            return Err(SubmitError::ShuttingDown);
        }
        if q.len() >= self.capacity {
            return Err(SubmitError::QueueFull);
        }
        q.push_back(job);
        drop(q);
        self.available.notify_one();
        Ok(())
    }

    /// Pop the next micro-batch: the frontmost job plus — unless it is a
    /// GNN inference, which runs alone — up to `max_batch - 1` queued
    /// SpMM jobs against the same matrix (in arrival order). Blocks while
    /// the queue is empty; returns `None` once the engine drains.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut q = lock_recover(&self.queue);
        loop {
            if let Some(first) = q.pop_front() {
                let matrix_id = first.matrix_id;
                let alone = matches!(first.work, Work::Gnn(_));
                let mut batch = vec![first];
                let mut i = 0;
                while !alone && i < q.len() && batch.len() < self.max_batch {
                    if q[i].matrix_id == matrix_id && matches!(q[i].work, Work::Spmm(_)) {
                        batch.extend(q.remove(i));
                    } else {
                        i += 1;
                    }
                }
                return Some(batch);
            }
            if self.is_closed() {
                return None;
            }
            let (guard, _) = self
                .available
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
        }
    }

    fn drain(&self) -> Vec<Job> {
        lock_recover(&self.queue).drain(..).collect()
    }
}

/// Admit `work` against `matrix_id` on behalf of `tenant`, due `deadline`
/// from now (`None`: the engine default). `Err` means it was *not*
/// queued.
pub(crate) fn admit(
    inner: &Inner,
    tenant: &str,
    matrix_id: u64,
    deadline: Option<Duration>,
    work: Work,
) -> Result<Ticket, SubmitError> {
    let (tx, rx) = mpsc::channel();
    let now = Instant::now();
    let job = Job {
        tenant: tenant.to_string(),
        matrix_id,
        work,
        deadline: now + deadline.unwrap_or(inner.cfg.default_deadline),
        enqueued: now,
        tx,
    };
    let admitted = inner.jobs.push(job);
    if admitted != Err(SubmitError::ShuttingDown) {
        let mut tenants = inner.tenants.lock();
        let stats = tenants.entry(tenant.to_string()).or_default();
        match admitted {
            Ok(()) => stats.submitted += 1,
            Err(_) => stats.rejected += 1,
        }
    }
    admitted.map(|()| Ticket { rx })
}

/// The worker threads and the supervisor that keeps their number up.
pub(crate) struct WorkerPool {
    workers: Arc<Mutex<Vec<Option<thread::JoinHandle<()>>>>>,
    monitor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `inner.cfg.workers` workers and their supervisor.
    pub(crate) fn start(inner: &Arc<Inner>) -> WorkerPool {
        let workers = Arc::new(Mutex::new(
            (0..inner.cfg.workers).map(|_| Some(spawn_worker(Arc::clone(inner)))).collect(),
        ));
        let monitor = spawn_monitor(Arc::clone(inner), Arc::clone(&workers));
        WorkerPool { workers, monitor: Mutex::new(Some(monitor)) }
    }

    /// Graceful drain: stop admitting, let the workers finish the queue,
    /// join them. Idempotent.
    pub(crate) fn shutdown(&self, inner: &Inner) {
        inner.jobs.close();
        if let Some(m) = self.monitor.lock().take() {
            let _ = m.join();
        }
        let handles: Vec<thread::JoinHandle<()>> =
            self.workers.lock().iter_mut().filter_map(Option::take).collect();
        for h in handles {
            let _ = h.join();
        }
        // Belt and braces for the submit/shutdown race: fail any job that
        // slipped into the queue after the workers drained it, so no
        // `Ticket::wait` blocks forever on a sender parked in the queue.
        for job in inner.jobs.drain() {
            inner.tenants.lock().entry(job.tenant).or_default().failed += 1;
            let _ = job.tx.send(Outcome::Failed("engine shut down before execution".into()));
        }
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
            while !inner.jobs.is_closed() {
                {
                    let mut pool = workers.lock();
                    for slot in pool.iter_mut() {
                        let dead = slot.as_ref().is_some_and(|h| h.is_finished());
                        if dead && !inner.jobs.is_closed() {
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
        let Some(batch) = inner.jobs.next_batch() else { return };
        if fs_chaos::chaos_enabled() {
            chaos_worker_faults(&batch);
        }
        // The PanicWorker test hook escapes the unwind boundary on
        // purpose: the thread dies and the supervisor must respawn it.
        if batch.iter().any(|j| matches!(j.work, Work::PanicWorker)) {
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

/// Run every job of the batch, inside the unwind boundary. A GNN job is
/// always alone; SpMM jobs (and the poison hook) share one resolved
/// format.
fn execute(inner: &Arc<Inner>, batch: &[Job], started: Instant) -> Vec<Reply> {
    if let [Job { work: Work::Gnn(req), matrix_id, .. }] = batch {
        return vec![Reply::Gnn(run_inference(inner, *matrix_id, req))];
    }
    let (outputs, cache_hit) = execute_batch(inner, batch);
    let service_micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    batch
        .iter()
        .zip(outputs)
        .map(|(job, exec)| {
            let queued = started.duration_since(job.enqueued);
            Reply::Spmm(SpmmResponse {
                out: exec.out,
                counters: exec.counters,
                cache_hit,
                batch_size: batch.len(),
                queue_micros: queued.as_micros().min(u128::from(u64::MAX)) as u64,
                service_micros,
                fallback_level: exec.fallback_level,
                verified: exec.verified,
            })
        })
        .collect()
}

fn run_batch(inner: &Arc<Inner>, batch: Vec<Job>) {
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        if now > job.deadline {
            inner.tenants.lock().entry(job.tenant).or_default().timed_out += 1;
            let _ = job.tx.send(Outcome::TimedOut);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    {
        let mut tenants = inner.tenants.lock();
        for job in &live {
            let t = tenants.entry(job.tenant.clone()).or_default();
            t.batches += 1;
            t.max_batch = t.max_batch.max(live.len() as u64);
        }
    }
    let _batch_span = fs_trace::span(fs_trace::Site::ServeBatch);
    let started = Instant::now();
    // lint: counted-catch - Err is counted into worker_panics below and the monitor respawns the worker
    let result = catch_unwind(AssertUnwindSafe(|| execute(inner, &live, started)));
    let Ok(replies) = result else {
        inner.worker_panics.fetch_add(1, Ordering::Relaxed);
        for job in live {
            inner.tenants.lock().entry(job.tenant).or_default().failed += 1;
            let _ = job.tx.send(Outcome::Failed("worker panicked during batch execution".into()));
        }
        return;
    };
    for (job, reply) in live.into_iter().zip(replies) {
        fs_trace::record_duration(fs_trace::Site::ServeQueue, started.duration_since(job.enqueued));
        {
            let mut tenants = inner.tenants.lock();
            let t = tenants.entry(job.tenant).or_default();
            match &reply {
                Reply::Spmm(resp) => {
                    t.completed += 1;
                    t.counters += resp.counters;
                }
                Reply::Gnn(Ok(_)) => t.completed += 1,
                Reply::Gnn(Err(_)) => t.failed += 1,
            }
        }
        let _ = job.tx.send(Outcome::Done(reply));
    }
}
