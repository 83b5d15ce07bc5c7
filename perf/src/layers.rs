//! Layer probes: every layer's public entry points timed from outside on a
//! workload's own inputs, so each traced run reports every per-layer
//! metric whether or not the workload's op enters that layer.

use std::hint::black_box;
use std::time::Instant;

use flashsparse::{
    auto_tune, spmm_overlapped, FlashSparseMatrix, SchedMode, TranslatedMatrix, TuneChoice,
};
use fs_baselines::cuda::{cusparse_like, rode};
use fs_baselines::tcu16::dtc;
use fs_baselines::wave::tcu_window_imbalance;
use fs_baselines::BaselineRun;
use fs_format::MemoryFootprint;
use fs_gnn::normalize_adjacency;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_serve::{ServeEngine, SpmmOutcome};
use fs_tcu::cost::{spmm_useful_flops, ComputeClass};
use fs_tcu::{KernelCounters, Precision};

use crate::metrics::{Value, PER_LAYER};
use crate::stats::sub_seed;
use crate::trace::{op_coverage, Tracer, OP};
use crate::workloads::{
    dense, engine_config, gcn_weights, gnn_request, offline_forward, report_inference,
    report_response, shed, spmm_request, spmm_split, Loopback, Sizes, GPU, TENANT,
};

/// Times each timed probe repeats; its metric is the median.
pub const PROBE_REPS: usize = 5;

/// Run every probe on (`csr`, dense width `n`); `csr` must be square.
/// Returns the requests the probe's engine rejected and timed out.
pub fn probe_all(
    csr: &CsrMatrix<f32>,
    n: usize,
    sz: Sizes,
    seed: u64,
    tr: &mut Tracer,
) -> [u64; 2] {
    let b = dense(csr.cols(), n, sub_seed(seed, 900));
    probe_kernels(csr, &b, sz, seed, tr);
    probe_gnn(csr, sz, seed, tr);
    probe_serve(csr, &b, tr)
}

/// matrix, precision, format, core, tcu and baselines.
fn probe_kernels(
    csr: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    sz: Sizes,
    seed: u64,
    tr: &mut Tracer,
) {
    let n = b.cols();
    let mask: CsrMatrix<F16> = csr.cast();
    let flash = FlashSparseMatrix::from_csr(&mask);
    let sa: DenseMatrix<F16> = dense(csr.rows(), sz.sddmm_k, sub_seed(seed, 901)).cast();
    let sb: DenseMatrix<F16> = dense(csr.cols(), sz.sddmm_k, sub_seed(seed, 902)).cast();
    let mut last = None;
    for _ in 0..PROBE_REPS {
        tr.span("matrix.reference", |_| black_box(csr.spmm_reference(b)));
        let choice = tr.span("core.tune", |_| auto_tune(csr, n, GPU));
        let translated = tr.span("format.translate", |_| TranslatedMatrix::translate(csr, &choice));
        let (_, counters) = black_box(spmm_split(&translated, b, choice.mapping, tr));
        tr.span("core.sddmm_kernel", |_| black_box(flash.sddmm(&sa, &sb)));
        tr.span("core.overlapped", |_| {
            black_box(spmm_overlapped(csr, b, &TuneChoice::FALLBACK, SchedMode::auto()))
        });
        tr.span("baselines.csr", |_| black_box(cusparse_like::spmm(csr, b)));
        tr.span("baselines.rode", |_| black_box(rode::spmm(csr, b)));
        last = Some((choice, translated, counters));
    }
    // lint: allow-panic - the loop above runs at least once
    let (choice, translated, k) = last.expect("PROBE_REPS is positive");

    // Exact quantities: sizes, counters and what the cost model makes of them.
    let sim = simulate(csr, b, &choice, &translated, k);
    let tiles = n.div_ceil(16) as f64;
    let slots = k.mma_count as f64 * 8.0 * choice.block_k as f64;
    for (name, v) in [
        ("format.footprint_bytes", translated.footprint_bytes() as f64),
        ("format.fill_ratio", sim.fill_ratio),
        ("tcu.mma_per_op", k.mma_count as f64),
        ("tcu.sectors_per_op", k.transactions() as f64),
        ("tcu.bytes_per_op", k.bytes_moved() as f64),
        ("tcu.mma_utilisation", csr.nnz() as f64 * tiles / slots.max(1.0)),
        ("tcu.sim_gflops_h100", sim.flash.simulated_gflops(spmm_useful_flops(csr.nnz(), n), GPU)),
        ("baselines.sim_speedup_vs_dtc", sim.vs_dtc),
        ("baselines.sim_speedup_vs_rode", sim.vs_rode),
    ] {
        tr.value(name, v);
    }
}

/// What the cost model makes of one tuned SpMM and of the two systems the
/// paper's headline compares it with.
pub struct Simulated {
    pub fill_ratio: f64,
    pub flash: BaselineRun,
    /// Simulated H100 time of DTC-SpMM (16×1 vectors) over FlashSparse's.
    pub vs_dtc: f64,
    /// Simulated H100 time of RoDe over FlashSparse's.
    pub vs_rode: f64,
}

/// Simulate `translated`'s SpMM (whose `counters` the caller has) and both
/// baselines on the same inputs, all three through
/// `BaselineRun::simulated_time` — roofline times wave imbalance, as
/// fs-bench's figures do.
pub fn simulate(
    csr: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    choice: &TuneChoice,
    translated: &TranslatedMatrix,
    counters: KernelCounters,
) -> Simulated {
    let tiles = b.cols().div_ceil(16);
    let (fill_ratio, imbalance) = match translated {
        TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => {
            (me.fill_ratio(), tcu_window_imbalance(me, tiles))
        }
        TranslatedMatrix::Tf32K4(me) => (me.fill_ratio(), tcu_window_imbalance(me, tiles)),
    };
    let flash = BaselineRun { counters, imbalance, class: ComputeClass::tcu(choice.precision) };
    let dtc = match choice.precision {
        Precision::Fp16 => dtc::spmm_16x1(&dtc::format16(&csr.cast::<F16>()), &b.cast::<F16>()).1,
        Precision::Tf32 => dtc::spmm_16x1(&dtc::format16(&csr.cast::<Tf32>()), &b.cast::<Tf32>()).1,
    };
    let flash_s = flash.simulated_time(GPU);
    Simulated {
        fill_ratio,
        flash,
        vs_dtc: dtc.simulated_time(GPU) / flash_s,
        vs_rode: rode::spmm(csr, b).1.simulated_time(GPU) / flash_s,
    }
}

/// serve: load, the cold miss, warm requests over TCP and in process.
fn probe_serve(csr: &CsrMatrix<f32>, b: &DenseMatrix<f32>, tr: &mut Tracer) -> [u64; 2] {
    let mut loopback = Loopback::start();
    let id = tr
        .span("serve.load", |_| loopback.client.load_matrix(TENANT, csr))
        // lint: allow-panic - a failed set-up or probe voids the run
        .expect("server accepts the matrix")
        .matrix_id;
    tr.span("serve.first_request", |_| loopback.spmm(id, b, &mut Tracer::new(false)))
        // lint: allow-panic - a failed set-up or probe voids the run
        .expect("first request is served");
    for _ in 0..PROBE_REPS {
        // lint: allow-panic - a failed set-up or probe voids the run
        tr.span("serve.tcp_request", |tr| loopback.spmm(id, b, tr)).expect("request is served");
        let request = spmm_request(id, b.clone());
        let outcome = tr.span("serve.inproc", |_| loopback.engine.spmm_blocking(request));
        let Ok(SpmmOutcome::Done(resp)) = outcome else { panic!("in-process request is served") };
        report_response(tr, None, &resp);
    }
    let shed = shed(&loopback.engine);
    loopback.stop();
    shed
}

/// gnn: one served inference, its offline twin, and an exact repeat that
/// the embedding cache answers.
fn probe_gnn(csr: &CsrMatrix<f32>, sz: Sizes, seed: u64, tr: &mut Tracer) {
    let adj = normalize_adjacency(csr);
    let weights = gcn_weights(sz.gnn_dim, sub_seed(seed, 903));
    let x = dense(adj.rows(), sz.gnn_dim, sub_seed(seed, 904));
    let engine = ServeEngine::start(engine_config());
    // lint: allow-panic - a failed set-up or probe voids the run
    let graph = engine.register_matrix(TENANT, adj.clone()).expect("engine accepts the graph");
    let model =
        // lint: allow-panic - a failed set-up or probe voids the run
        engine.gnn_register(TENANT, graph.id, weights.clone()).expect("engine accepts the model");
    for i in 0..PROBE_REPS {
        // A new fingerprint per repeat, so each inference misses the cache.
        let mut x = x.clone();
        x.as_mut_slice()[i] += 1.0;
        let request = gnn_request(model.id, x.clone());
        tr.span("gnn.infer", |tr| {
            let t = Instant::now();
            // lint: allow-panic - a failed set-up or probe voids the run
            let r = engine.gnn_infer(request).expect("inference is served");
            report_inference(tr, &r.layer_micros, t.elapsed());
        });
        tr.span("gnn.offline_forward", |_| black_box(offline_forward(&weights, &adj, &x)));
        let repeat = gnn_request(model.id, x);
        // lint: allow-panic - a failed set-up or probe voids the run
        let hit = tr.span("gnn.cache_hit", |_| engine.gnn_infer(repeat)).expect("repeat is served");
        assert!(hit.cache_hit, "an exact repeat is answered from the embedding cache");
    }
    engine.shutdown();
}

/// Record the metrics that are ratios of other metrics, once everything
/// they are made of has been recorded.
pub fn derive(
    csr: &CsrMatrix<f32>,
    n: usize,
    sz: Sizes,
    shed: [u64; 2],
    [untraced_p50_ms, traced_p50_ms]: [f64; 2],
    tr: &mut Tracer,
) {
    let kernel_ms = tr.p50_ms("core.spmm_kernel");
    let sddmm_ms = tr.p50_ms("core.sddmm_kernel");
    let ops = tr.durations_ms(OP).len();
    for (name, v) in [
        ("core.spmm_gflops_equiv", spmm_useful_flops(csr.nnz(), n) as f64 / (kernel_ms * 1e6)),
        (
            "core.sddmm_gflops_equiv",
            spmm_useful_flops(csr.nnz(), sz.sddmm_k) as f64 / (sddmm_ms * 1e6),
        ),
        ("baselines.fast_over_csr", kernel_ms / tr.p50_ms("baselines.csr")),
        ("serve.rejected", shed[0] as f64),
        ("serve.timed_out", shed[1] as f64),
        ("driver.samples", ops as f64),
        ("driver.span_coverage", op_coverage(tr.spans())),
        ("driver.op_p50_untraced", untraced_p50_ms),
        ("driver.op_p50_traced", traced_p50_ms),
        ("driver.trace_overhead_share", traced_p50_ms / untraced_p50_ms - 1.0),
    ] {
        tr.value(name, v);
    }
}

/// Every per-layer metric, read back from what the tracer recorded.
pub fn values(tr: &Tracer) -> Vec<Value> {
    PER_LAYER
        .iter()
        .map(|m| Value {
            name: m.name,
            value: match m.name.strip_suffix("_ms") {
                Some(span) => tr.p50_ms(span),
                None => tr.mean_value(m.name),
            },
            unit: m.unit,
        })
        .collect()
}
