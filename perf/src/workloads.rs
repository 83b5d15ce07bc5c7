//! The six workloads. Each is set up from `--seed`, warmed, and then
//! stepped for the measuring window; a step performs one op (eight for
//! `engine_burst`), timed from the caller's side, and verifies its output
//! outside the timed interval.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flashsparse::{auto_tune, FlashSparseMatrix, ThreadMapping, TranslatedMatrix, TuneChoice};
use fs_format::MeBcrs;
use fs_gnn::{normalize_adjacency, GcnModel, GnnWeights, SparseOps};
use fs_matrix::gen::{random_uniform, rmat, sbm, RmatConfig, SbmConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Scalar, Tf32, F16};
use fs_serve::{
    backend_for_precision, EngineConfig, GnnInferRequest, ServeClient, ServeEngine, Server,
    ServerConfig, SpmmOutcome, SpmmRequest, SpmmResponse,
};
use fs_tcu::cost::{ComputeClass, CostModel};
use fs_tcu::{GpuSpec, KernelCounters, Precision};

use crate::stats::{fnv64_f32, sub_seed};
use crate::trace::{Tracer, OP};

/// The simulated GPU every tuner call and every `sim_gpu_us` uses.
pub const GPU: GpuSpec = GpuSpec::H100_PCIE;
/// Engine worker threads (the host reports two cores).
pub const WORKERS: usize = 2;
/// TCP connections of `serve_tcp`; a closed loop of one caller.
pub const CONNECTIONS: usize = 1;
/// Requests `engine_burst` keeps outstanding.
pub const BURST: usize = 8;
/// Untimed steps that end every set-up.
pub const WARMUP_STEPS: usize = 5;
/// Distinct dense operands a warm workload rotates through.
pub const OPERANDS: usize = 2;
/// Every n-th `gnn_infer` response is bit-compared with the offline pass.
pub const GNN_VERIFY_EVERY: u64 = 8;
/// Wire precision byte of `gnn_infer`: 2 is FP16.
pub const GNN_PRECISION: u8 = 2;
/// The one tenant every served request belongs to.
pub const TENANT: &str = "perf";

/// Input sizes. `FULL` is what the benchmark measures; `SMOKE` keeps the
/// same code paths on inputs small enough for a one-second test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// R-MAT scale of `spmm_warm` and `sddmm_warm` (edge factor 8, symmetric).
    pub warm_scale: u32,
    /// R-MAT scale of each `prepare_cold` matrix.
    pub cold_scale: u32,
    /// Rows and columns of the served uniform matrix.
    pub serve_dim: usize,
    /// Nonzeros of the served uniform matrix.
    pub serve_nnz: usize,
    /// Nodes of the SBM graph of `gnn_infer`.
    pub gnn_nodes: usize,
    /// Dense width N of `spmm_warm`, `serve_tcp` and `engine_burst`.
    pub n: usize,
    /// Dense width N of `prepare_cold`.
    pub cold_n: usize,
    /// Inner dimension K of `sddmm_warm`.
    pub sddmm_k: usize,
    /// Feature and hidden width of the GCN (64 → 64 → 4).
    pub gnn_dim: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        warm_scale: 12,
        cold_scale: 11,
        serve_dim: 4096,
        serve_nnz: 16_384,
        gnn_nodes: 1024,
        n: 128,
        cold_n: 32,
        sddmm_k: 32,
        gnn_dim: 64,
    };
    #[cfg(test)]
    pub const SMOKE: Sizes = Sizes {
        warm_scale: 7,
        cold_scale: 6,
        serve_dim: 256,
        serve_nnz: 1024,
        gnn_nodes: 96,
        n: 16,
        cold_n: 8,
        sddmm_k: 8,
        gnn_dim: 8,
    };
}

/// What the measuring window collects.
#[derive(Default)]
pub struct Run {
    /// Caller-side latency of every op that completed and verified, ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops that failed, were rejected, timed out or returned a wrong output.
    pub failed: u64,
    /// Time spent generating inputs and verifying outputs, which the
    /// measuring window does not count.
    pub outside: Duration,
}

impl Run {
    /// Run `f` off the clock of the measuring window.
    pub fn outside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.outside += t.elapsed();
        out
    }

    fn record(&mut self, latency: Duration, ok: bool) {
        self.attempted += 1;
        if ok {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }
}

pub trait Workload {
    /// One iteration of the closed loop.
    fn step(&mut self, tr: &mut Tracer, run: &mut Run);
    /// Simulated H100-PCIe time, in µs, of the kernels one op launches.
    fn sim_gpu_us(&mut self) -> f64;
    /// The sparse matrix and dense width the layer probes run on.
    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize);
    /// Requests the workload's engine rejected and timed out.
    fn shed(&self) -> [u64; 2] {
        [0, 0]
    }
    /// Stop every thread the workload started.
    fn finish(self: Box<Self>) {}
}

/// Generate inputs and bring the system to its warm state (tune, translate,
/// start engine or server, register or load). `None` for an unknown name.
pub fn setup(name: &str, seed: u64, sz: Sizes, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "spmm_warm" => Box::new(SpmmWarm::setup(seed, sz, tr)),
        "sddmm_warm" => Box::new(SddmmWarm::setup(seed, sz, tr)),
        "prepare_cold" => Box::new(PrepareCold::setup(seed, sz)),
        "serve_tcp" => Box::new(ServeTcp::setup(seed, sz, tr)),
        "engine_burst" => Box::new(EngineBurst::setup(seed, sz, tr)),
        "gnn_infer" => Box::new(GnnInfer::setup(seed, sz, tr)),
        _ => return None,
    })
}

// ---------------------------------------------------------------- inputs

/// A dense matrix of seeded values in [-1, 1).
pub fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
    DenseMatrix::from_fn(rows, cols, |r, c| {
        let bits = sub_seed(seed, (r * cols + c) as u64) >> 40;
        bits as f32 / (1u64 << 23) as f32 - 1.0
    })
}

pub fn rmat_csr(scale: u32, seed: u64) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&rmat::<f32>(scale, 8, RmatConfig::GRAPH500, true, seed))
}

fn uniform_csr(sz: Sizes, seed: u64) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&random_uniform::<f32>(sz.serve_dim, sz.serve_dim, sz.serve_nnz, seed))
}

/// The engine both serving workloads and the probes run: the overlapped
/// cold path is off, so the first request leaves the tuned entry cached.
pub fn engine_config() -> EngineConfig {
    EngineConfig { workers: WORKERS, pipeline: false, gpu: GPU, ..EngineConfig::default() }
}

pub fn spmm_request(matrix_id: u64, b: DenseMatrix<f32>) -> SpmmRequest {
    SpmmRequest { tenant: TENANT.to_string(), matrix_id, b, deadline: None }
}

// ---------------------------------------------------------- verification

/// Relative Frobenius bound of a tensor-core output against the f32
/// reference.
pub fn tolerance(precision: Precision) -> f32 {
    match precision {
        Precision::Fp16 => 1e-2,
        Precision::Tf32 => 1e-3,
    }
}

/// The first output of every distinct input must pass its reference check;
/// every later output of that input must hash equal to the first.
#[derive(Default)]
struct Verifier {
    first: HashMap<u64, u64>,
}

impl Verifier {
    fn check(&mut self, input: u64, out: &[f32], reference: impl FnOnce() -> bool) -> bool {
        let hash = fnv64_f32(out);
        match self.first.get(&input) {
            Some(&first) => first == hash,
            None => {
                let ok = reference();
                if ok {
                    self.first.insert(input, hash);
                }
                ok
            }
        }
    }
}

fn spmm_close(
    csr: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    out: &DenseMatrix<f32>,
    tol: f32,
) -> bool {
    (out.rows(), out.cols()) == (csr.rows(), b.cols())
        && out.rel_frob_diff(&csr.spmm_reference(b)) <= tol
}

/// Compare an SDDMM output with the scalar reference over the mask's
/// pattern (`to_csr` drops exact zeros, so a missing entry reads 0).
fn sddmm_close(
    mask: &CsrMatrix<F16>,
    a: &DenseMatrix<F16>,
    b: &DenseMatrix<F16>,
    out: &MeBcrs<F16>,
) -> bool {
    let want = mask.sddmm_reference(a, b);
    let got = out.to_csr();
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for r in 0..want.rows() {
        let (cols, vals) = (got.row_cols(r), got.row_values(r));
        for (&c, &w) in want.row_cols(r).iter().zip(want.row_values(r)) {
            let g = cols.binary_search(&c).map_or(0.0, |i| vals[i].to_f32());
            num += f64::from(g - w).powi(2);
            den += f64::from(w).powi(2);
        }
    }
    num.sqrt() <= f64::from(tolerance(Precision::Fp16)) * den.sqrt().max(1e-30)
}

fn sim_us(counters: &KernelCounters, precision: Precision) -> f64 {
    CostModel::new(GPU).kernel_time(counters, ComputeClass::tcu(precision)) * 1e6
}

/// Simulated time of the SpMM the engine launches for (`csr`, `b`): the
/// engine tunes with the same call, and a served response does not say
/// which variant it ran.
fn served_sim_us(csr: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> f64 {
    let choice = auto_tune(csr, b.cols(), GPU);
    let (_, k) = TranslatedMatrix::translate(csr, &choice).spmm_f32(b, choice.mapping);
    sim_us(&k, choice.precision)
}

// ------------------------------------------------------------- spmm_warm

/// The three steps `TranslatedMatrix::spmm_f32` performs — cast B to the
/// variant's precision, run the typed kernel, widen C — each under its own
/// span. The traced pass runs this in place of `spmm_f32`.
pub fn spmm_split(
    t: &TranslatedMatrix,
    b: &DenseMatrix<f32>,
    mapping: ThreadMapping,
    tr: &mut Tracer,
) -> (DenseMatrix<f32>, KernelCounters) {
    fn steps<S: Scalar>(
        b: &DenseMatrix<f32>,
        tr: &mut Tracer,
        kernel: impl FnOnce(&DenseMatrix<S>) -> (DenseMatrix<S>, KernelCounters),
    ) -> (DenseMatrix<f32>, KernelCounters) {
        let b = tr.span("precision.cast_in", |_| b.cast::<S>());
        let (c, k) = tr.span("core.spmm_kernel", |_| kernel(&b));
        (tr.span("precision.cast_out", |_| c.cast::<f32>()), k)
    }
    match t {
        TranslatedMatrix::Fp16K8(me) => steps::<F16>(b, tr, |b| flashsparse::spmm(me, b, mapping)),
        TranslatedMatrix::Fp16K16(me) => {
            steps::<F16>(b, tr, |b| flashsparse::spmm_fp16_k16(me, b, mapping))
        }
        TranslatedMatrix::Tf32K4(me) => steps::<Tf32>(b, tr, |b| flashsparse::spmm(me, b, mapping)),
    }
}

struct SpmmWarm {
    csr: CsrMatrix<f32>,
    choice: TuneChoice,
    translated: TranslatedMatrix,
    operands: Vec<DenseMatrix<f32>>,
    verifier: Verifier,
    next: usize,
}

impl SpmmWarm {
    fn setup(seed: u64, sz: Sizes, tr: &mut Tracer) -> SpmmWarm {
        let csr = tr.span("matrix.gen", |_| rmat_csr(sz.warm_scale, sub_seed(seed, 0)));
        let choice = tr.span("core.tune", |_| auto_tune(&csr, sz.n, GPU));
        let translated =
            tr.span("format.translate", |_| TranslatedMatrix::translate(&csr, &choice));
        let operands =
            (0..OPERANDS).map(|j| dense(csr.cols(), sz.n, sub_seed(seed, 1 + j as u64))).collect();
        SpmmWarm { csr, choice, translated, operands, verifier: Verifier::default(), next: 0 }
    }
}

impl Workload for SpmmWarm {
    fn step(&mut self, tr: &mut Tracer, run: &mut Run) {
        let which = self.next % self.operands.len();
        self.next += 1;
        let b = &self.operands[which];
        let mapping = self.choice.mapping;
        let t = Instant::now();
        let (out, _) = if tr.enabled() {
            tr.span(OP, |tr| spmm_split(&self.translated, b, mapping, tr))
        } else {
            self.translated.spmm_f32(b, mapping)
        };
        let latency = t.elapsed();
        let tol = tolerance(self.choice.precision);
        let ok = run.outside(|| {
            self.verifier
                .check(which as u64, out.as_slice(), || spmm_close(&self.csr, b, &out, tol))
        });
        run.record(latency, ok);
    }

    fn sim_gpu_us(&mut self) -> f64 {
        let (_, k) = self.translated.spmm_f32(&self.operands[0], self.choice.mapping);
        sim_us(&k, self.choice.precision)
    }

    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize) {
        (&self.csr, self.operands[0].cols())
    }
}

// ------------------------------------------------------------ sddmm_warm

struct SddmmWarm {
    csr: CsrMatrix<f32>,
    mask: CsrMatrix<F16>,
    flash: FlashSparseMatrix<F16>,
    /// (A, B) pairs: `rows × K` and `cols × K`.
    operands: Vec<(DenseMatrix<F16>, DenseMatrix<F16>)>,
    verifier: Verifier,
    next: usize,
    probe_n: usize,
}

impl SddmmWarm {
    fn setup(seed: u64, sz: Sizes, tr: &mut Tracer) -> SddmmWarm {
        let csr = tr.span("matrix.gen", |_| rmat_csr(sz.warm_scale, sub_seed(seed, 0)));
        let mask: CsrMatrix<F16> = csr.cast();
        let flash = tr.span("format.translate", |_| FlashSparseMatrix::from_csr(&mask));
        let operands = (0..OPERANDS as u64)
            .map(|j| {
                (
                    dense(csr.rows(), sz.sddmm_k, sub_seed(seed, 1 + 2 * j)).cast(),
                    dense(csr.cols(), sz.sddmm_k, sub_seed(seed, 2 + 2 * j)).cast(),
                )
            })
            .collect();
        let verifier = Verifier::default();
        SddmmWarm { csr, mask, flash, operands, verifier, next: 0, probe_n: sz.n }
    }
}

impl Workload for SddmmWarm {
    fn step(&mut self, tr: &mut Tracer, run: &mut Run) {
        let which = self.next % self.operands.len();
        self.next += 1;
        let (a, b) = &self.operands[which];
        let t = Instant::now();
        let (out, _) = tr.span(OP, |tr| tr.span("core.sddmm_kernel", |_| self.flash.sddmm(a, b)));
        let latency = t.elapsed();
        let ok = run.outside(|| {
            let values: Vec<f32> = out.values().iter().map(|v| v.to_f32()).collect();
            self.verifier.check(which as u64, &values, || sddmm_close(&self.mask, a, b, &out))
        });
        run.record(latency, ok);
    }

    fn sim_gpu_us(&mut self) -> f64 {
        let (a, b) = &self.operands[0];
        sim_us(&self.flash.sddmm(a, b).1, Precision::Fp16)
    }

    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize) {
        (&self.csr, self.probe_n)
    }
}

// ---------------------------------------------------------- prepare_cold

struct PrepareCold {
    seed: u64,
    sz: Sizes,
    b: DenseMatrix<f32>,
    /// The matrix of the first op, kept for the probes and `sim_gpu_us`.
    first: CsrMatrix<f32>,
    next: u64,
}

impl PrepareCold {
    fn matrix(seed: u64, sz: Sizes, i: u64) -> CsrMatrix<f32> {
        rmat_csr(sz.cold_scale, sub_seed(seed, 16 + i))
    }

    fn setup(seed: u64, sz: Sizes) -> PrepareCold {
        let first = Self::matrix(seed, sz, 0);
        let b = dense(first.cols(), sz.cold_n, sub_seed(seed, 1));
        PrepareCold { seed, sz, b, first, next: 0 }
    }
}

impl Workload for PrepareCold {
    fn step(&mut self, tr: &mut Tracer, run: &mut Run) {
        let i = self.next;
        self.next += 1;
        let csr = run.outside(|| tr.span("matrix.gen", |_| Self::matrix(self.seed, self.sz, i)));
        let b = &self.b;
        let t = Instant::now();
        let (choice, out) = tr.span(OP, |tr| {
            let choice = tr.span("core.tune", |_| auto_tune(&csr, b.cols(), GPU));
            let translated =
                tr.span("format.translate", |_| TranslatedMatrix::translate(&csr, &choice));
            let (out, _) = tr.span("core.spmm_f32", |_| translated.spmm_f32(b, choice.mapping));
            (choice, out)
        });
        let latency = t.elapsed();
        // Every matrix is new, so every output is a first output.
        let ok = run.outside(|| spmm_close(&csr, b, &out, tolerance(choice.precision)));
        run.record(latency, ok);
    }

    fn sim_gpu_us(&mut self) -> f64 {
        served_sim_us(&self.first, &self.b)
    }

    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize) {
        (&self.first, self.b.cols())
    }
}

// ------------------------------------------------------------- serve_tcp

/// An in-process `Server` on an ephemeral loopback port, its accept loop
/// on a thread of its own, and one connected client.
pub struct Loopback {
    pub engine: Arc<ServeEngine>,
    pub client: ServeClient,
    accept: JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    pub fn start() -> Loopback {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: engine_config(),
            ..ServerConfig::default()
        })
        // lint: allow-panic - a failed set-up or probe voids the run
        .expect("bind a loopback port");
        let engine = Arc::clone(server.engine());
        let addr = server.local_addr();
        let accept = std::thread::spawn(move || server.run());
        let client = ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
            // lint: allow-panic - a failed set-up or probe voids the run
            .expect("connect to the in-process server");
        Loopback { engine, client, accept }
    }

    /// One SpMM over the connection: the output and the server's own
    /// account of queue and service time, or `None` on any error.
    pub fn spmm(
        &mut self,
        matrix_id: u64,
        b: &DenseMatrix<f32>,
        tr: &mut Tracer,
    ) -> Option<Vec<f32>> {
        let t = Instant::now();
        let r =
            self.client.spmm(TENANT, matrix_id, b.rows(), b.cols(), b.as_slice(), 30_000).ok()?;
        let call_us = t.elapsed().as_secs_f64() * 1e6;
        let (queue, service) = (r.queue_micros as f64, r.service_micros as f64);
        tr.reported("serve.queue", queue);
        tr.reported("serve.service", service);
        tr.reported("serve.wire", (call_us - queue - service).max(0.0));
        tr.value("serve.batch_mean", r.batch_size as f64);
        tr.value("serve.cache_hit_share", f64::from(u8::from(r.cache_hit)));
        Some(r.out)
    }

    /// Ask the server to stop and wait for its threads.
    pub fn stop(mut self) {
        // lint: allow-panic - a failed set-up or probe voids the run
        self.client.shutdown().expect("server acknowledges shutdown");
        // lint: allow-panic - a failed set-up or probe voids the run
        self.accept.join().expect("accept loop does not panic").expect("accept loop exits cleanly");
    }
}

struct ServeTcp {
    csr: CsrMatrix<f32>,
    loopback: Loopback,
    matrix_id: u64,
    operands: Vec<DenseMatrix<f32>>,
    verifier: Verifier,
    next: usize,
}

impl ServeTcp {
    fn setup(seed: u64, sz: Sizes, tr: &mut Tracer) -> ServeTcp {
        let csr = tr.span("matrix.gen", |_| uniform_csr(sz, sub_seed(seed, 0)));
        let operands: Vec<_> =
            (0..OPERANDS).map(|j| dense(csr.cols(), sz.n, sub_seed(seed, 1 + j as u64))).collect();
        let mut loopback = Loopback::start();
        let matrix_id = tr
            .span("serve.load", |_| loopback.client.load_matrix(TENANT, &csr))
            // lint: allow-panic - a failed set-up or probe voids the run
            .expect("server accepts the matrix")
            .matrix_id;
        // The cold miss: the engine tunes and translates inside this call.
        tr.span("serve.first_request", |_| {
            loopback.spmm(matrix_id, &operands[0], &mut Tracer::new(false))
        })
        // lint: allow-panic - a failed set-up or probe voids the run
        .expect("first request is served");
        ServeTcp { csr, loopback, matrix_id, operands, verifier: Verifier::default(), next: 0 }
    }
}

impl Workload for ServeTcp {
    fn step(&mut self, tr: &mut Tracer, run: &mut Run) {
        let which = self.next % self.operands.len();
        self.next += 1;
        let b = &self.operands[which];
        let t = Instant::now();
        let out = tr.span(OP, |tr| self.loopback.spmm(self.matrix_id, b, tr));
        let latency = t.elapsed();
        let ok = run.outside(|| {
            out.is_some_and(|out| {
                self.verifier.check(which as u64, &out, || {
                    let out = DenseMatrix::from_vec(self.csr.rows(), b.cols(), out.clone());
                    spmm_close(&self.csr, b, &out, tolerance(Precision::Fp16))
                })
            })
        });
        run.record(latency, ok);
    }

    fn sim_gpu_us(&mut self) -> f64 {
        served_sim_us(&self.csr, &self.operands[0])
    }

    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize) {
        (&self.csr, self.operands[0].cols())
    }

    fn shed(&self) -> [u64; 2] {
        shed(&self.loopback.engine)
    }

    fn finish(self: Box<Self>) {
        self.loopback.stop();
    }
}

// ---------------------------------------------------------- engine_burst

/// Record what a response says about its own queue and service time.
pub fn report_response(tr: &mut Tracer, parent: Option<usize>, r: &SpmmResponse) {
    if let Some(parent) = parent {
        tr.reported_in(parent, "serve.queue", r.queue_micros as f64);
        tr.reported_in(parent, "serve.service", r.service_micros as f64);
    }
    tr.value("serve.batch_mean", r.batch_size as f64);
    tr.value("serve.cache_hit_share", f64::from(u8::from(r.cache_hit)));
}

/// Requests an engine rejected and timed out, from its per-tenant totals.
pub fn shed(engine: &ServeEngine) -> [u64; 2] {
    let stats = engine.tenant_stats(TENANT);
    [stats.rejected, stats.timed_out]
}

struct EngineBurst {
    csr: CsrMatrix<f32>,
    engine: ServeEngine,
    matrix_id: u64,
    operands: Vec<DenseMatrix<f32>>,
    verifier: Verifier,
    next: usize,
}

impl EngineBurst {
    fn setup(seed: u64, sz: Sizes, tr: &mut Tracer) -> EngineBurst {
        let csr = tr.span("matrix.gen", |_| uniform_csr(sz, sub_seed(seed, 0)));
        let operands: Vec<_> =
            (0..OPERANDS).map(|j| dense(csr.cols(), sz.n, sub_seed(seed, 1 + j as u64))).collect();
        let engine = ServeEngine::start(engine_config());
        let matrix_id = tr
            .span("serve.load", |_| engine.register_matrix(TENANT, csr.clone()))
            // lint: allow-panic - a failed set-up or probe voids the run
            .expect("engine accepts the matrix")
            .id;
        let first = tr.span("serve.first_request", |_| {
            engine.spmm_blocking(spmm_request(matrix_id, operands[0].clone()))
        });
        assert!(matches!(first, Ok(SpmmOutcome::Done(_))), "first request is served");
        EngineBurst { csr, engine, matrix_id, operands, verifier: Verifier::default(), next: 0 }
    }
}

impl Workload for EngineBurst {
    fn step(&mut self, tr: &mut Tracer, run: &mut Run) {
        let first = self.next;
        self.next += BURST;
        let which = |j: usize| (first + j) % self.operands.len();
        let requests: Vec<SpmmRequest> = run.outside(|| {
            (0..BURST)
                .map(|j| spmm_request(self.matrix_id, self.operands[which(j)].clone()))
                .collect()
        });
        let tickets: Vec<_> =
            requests.into_iter().map(|req| (Instant::now(), self.engine.submit(req))).collect();
        // All eight waits first: verifying one response while the engine
        // still works on the next would count in the later latencies.
        let waited: Vec<_> = tickets
            .into_iter()
            .map(|(submitted, ticket)| {
                let outcome = ticket.map(|t| t.wait());
                (submitted, submitted.elapsed(), outcome)
            })
            .collect();
        let verifying = Instant::now();
        for (j, (submitted, latency, outcome)) in waited.into_iter().enumerate() {
            let ok = match outcome {
                Ok(SpmmOutcome::Done(resp)) => {
                    let op = tr.op_interval(submitted, latency);
                    report_response(tr, op, &resp);
                    let b = &self.operands[which(j)];
                    self.verifier.check(which(j) as u64, resp.out.as_slice(), || {
                        spmm_close(&self.csr, b, &resp.out, tolerance(Precision::Fp16))
                    })
                }
                _ => false,
            };
            run.record(latency, ok);
        }
        run.outside += verifying.elapsed();
    }

    fn sim_gpu_us(&mut self) -> f64 {
        served_sim_us(&self.csr, &self.operands[0])
    }

    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize) {
        (&self.csr, self.operands[0].cols())
    }

    fn shed(&self) -> [u64; 2] {
        shed(&self.engine)
    }

    fn finish(self: Box<Self>) {
        self.engine.shutdown();
    }
}

// ------------------------------------------------------------- gnn_infer

/// A seeded, untrained 2-layer GCN `dim → dim → 4`.
pub fn gcn_weights(dim: usize, seed: u64) -> GnnWeights {
    GcnModel::new(&[dim, dim, 4], 0.01, seed).export_weights()
}

pub fn gnn_request(model_id: u64, features: DenseMatrix<f32>) -> GnnInferRequest {
    GnnInferRequest {
        tenant: TENANT.to_string(),
        model_id,
        precision: GNN_PRECISION,
        deadline: None,
        node_ids: Vec::new(),
        features,
    }
}

/// Record a served 2-layer inference's own per-layer times under the open
/// span, and the share of the caller's `latency` they leave unexplained.
pub fn report_inference(tr: &mut Tracer, layer_micros: &[u64], latency: Duration) {
    let (l0, l1) = (layer_micros[0] as f64, layer_micros[1] as f64);
    tr.reported("gnn.layer0", l0);
    tr.reported("gnn.layer1", l1);
    tr.value("gnn.serve_overhead_share", 1.0 - (l0 + l1) / (latency.as_secs_f64() * 1e6));
}

/// The offline forward pass a served inference must reproduce bit for bit.
pub fn offline_forward(
    weights: &GnnWeights,
    adj: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
) -> (DenseMatrix<f32>, f64) {
    // lint: allow-panic - the byte is a constant of this file
    let backend = backend_for_precision(GNN_PRECISION).expect("precision byte 2 is FP16");
    let ops = SparseOps::new(backend, GPU);
    let logits = weights.forward(&ops, adj, x);
    (logits, ops.take_stats().1 * 1e6)
}

struct GnnInfer {
    seed: u64,
    adj: CsrMatrix<f32>,
    weights: GnnWeights,
    features: DenseMatrix<f32>,
    engine: ServeEngine,
    model_id: u64,
    next: u64,
    probe_n: usize,
}

impl GnnInfer {
    fn setup(seed: u64, sz: Sizes, tr: &mut Tracer) -> GnnInfer {
        // Four communities; about 49 neighbours per node at any size.
        let per_class = sz.gnn_nodes as f64 / 4.0;
        let config = SbmConfig {
            nodes: sz.gnn_nodes,
            classes: 4,
            p_in: (30.0 / per_class).min(0.5),
            p_out: (19.0 / (3.0 * per_class)).min(0.2),
            feature_dim: sz.gnn_dim,
            ..SbmConfig::default()
        };
        let (adj, features) = tr.span("matrix.gen", |_| {
            let ds = sbm(config, sub_seed(seed, 0));
            (normalize_adjacency(&ds.adjacency), ds.features)
        });
        let weights = gcn_weights(sz.gnn_dim, sub_seed(seed, 1));
        let engine = ServeEngine::start(engine_config());
        let model_id = tr.span("serve.load", |_| {
            let graph =
                // lint: allow-panic - a failed set-up or probe voids the run
                engine.register_matrix(TENANT, adj.clone()).expect("engine accepts the graph");
            engine
                .gnn_register(TENANT, graph.id, weights.clone())
                // lint: allow-panic - a failed set-up or probe voids the run
                .expect("engine accepts the model")
                .id
        });
        GnnInfer { seed, adj, weights, features, engine, model_id, next: 0, probe_n: sz.n }
    }
}

impl Workload for GnnInfer {
    fn step(&mut self, tr: &mut Tracer, run: &mut Run) {
        let i = self.next;
        self.next += 1;
        // Bump one seeded element, so no two requests share a fingerprint
        // and the embedding cache never answers.
        let request = run.outside(|| {
            let values = self.features.as_mut_slice();
            let at = (sub_seed(self.seed, 1 << 32 | i) % values.len() as u64) as usize;
            values[at] += 1.0 / 64.0;
            gnn_request(self.model_id, self.features.clone())
        });
        let t = Instant::now();
        let resp = tr.span(OP, |tr| {
            let resp = self.engine.gnn_infer(request);
            if let Ok(r) = &resp {
                report_inference(tr, &r.layer_micros, t.elapsed());
            }
            resp
        });
        let latency = t.elapsed();
        let ok = run.outside(|| match resp {
            Ok(r) if !r.cache_hit && r.scores.len() == self.adj.rows() * 4 => {
                !i.is_multiple_of(GNN_VERIFY_EVERY) || {
                    let (want, _) = offline_forward(&self.weights, &self.adj, &self.features);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                    bits(&r.scores) == bits(want.as_slice())
                }
            }
            _ => false,
        });
        run.record(latency, ok);
    }

    fn sim_gpu_us(&mut self) -> f64 {
        offline_forward(&self.weights, &self.adj, &self.features).1
    }

    fn probe_inputs(&self) -> (&CsrMatrix<f32>, usize) {
        (&self.adj, self.probe_n)
    }

    fn finish(self: Box<Self>) {
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_must_hash_equal_to_a_first_output_that_passed() {
        let mut v = Verifier::default();
        assert!(!v.check(0, &[1.0, 2.0], || false), "a first output that fails its reference");
        assert!(v.check(0, &[1.0, 2.0], || true), "is not remembered");
        assert!(v.check(0, &[1.0, 2.0], || unreachable!("a repeat is hashed, not recomputed")));
        assert!(!v.check(0, &[1.0, f32::from_bits(2.0f32.to_bits() + 1)], || unreachable!()));
        assert!(v.check(1, &[3.0], || true), "another input has its own first output");
    }
}
