//! The tuner in closed form: [`auto_tune`] evaluates `spmm_counters` on
//! one pattern pass where it used to launch six SpMMs, and must decide
//! exactly as the launches did. The oracle is `tune_by_launching` — the
//! launched prober `auto_tune` itself still takes under a chaos or
//! sanitize scope — so there is no second copy of a tuner here.
//!
//! Every test holds the sanitize, chaos and trace scopes (in that order)
//! for as long as it reads a process-wide switch or counter, which is why
//! these tests have a binary of their own.

use flashsparse::tune::tune_by_launching;
use flashsparse::{auto_tune, TuneChoice};
use fs_chaos::{ChaosScope, FaultPlan, FaultSite};
use fs_gnn::normalize_adjacency;
use fs_matrix::gen::{random_uniform, rmat, sbm, RmatConfig, SbmConfig};
use fs_matrix::suite::matrix_suite;
use fs_matrix::CsrMatrix;
use fs_tcu::{ExecMode, GpuSpec, SanitizeScope};
use fs_trace::{Site, TraceCounter, TraceScope};

const GPUS: [GpuSpec; 2] = [GpuSpec::RTX4090, GpuSpec::H100_PCIE];

/// The counters `trace_launch` feeds: what `/metrics` reports as served
/// kernel work.
const LAUNCH_COUNTERS: [TraceCounter; 5] = [
    TraceCounter::Mmas,
    TraceCounter::Sectors,
    TraceCounter::Bytes,
    TraceCounter::ExecFast,
    TraceCounter::ExecSimulate,
];

fn uniform(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&random_uniform::<f32>(rows, cols, nnz, seed))
}

fn graph500(scale: u32, edge_factor: usize, seed: u64) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&rmat::<f32>(scale, edge_factor, RmatConfig::GRAPH500, true, seed))
}

/// Every field, `sampled_time` by its bits (it is serialised and cached).
fn assert_same_choice(got: TuneChoice, want: TuneChoice, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(got.sampled_time.to_bits(), want.sampled_time.to_bits(), "{what} sampled_time");
}

#[test]
fn closed_form_tune_is_the_launched_tune() {
    // Both switches held off: `auto_tune` takes the closed form.
    let _sanitize = SanitizeScope::off();
    let _chaos = ChaosScope::install(FaultPlan::new(0));
    assert_eq!(ExecMode::auto(), ExecMode::Fast);

    let mut cases: Vec<(String, CsrMatrix<f32>)> = vec![
        // The tuner's own unit-test matrices.
        ("rmat-8".into(), graph500(8, 4, 3)),
        ("uniform-512".into(), uniform(512, 512, 6000, 5)),
        ("uniform-256/4".into(), uniform(256, 256, 2000, 4)),
        ("uniform-256/9".into(), uniform(256, 256, 2000, 9)),
        ("uniform-64".into(), uniform(64, 64, 200, 3)),
        // Shapes the sample cut must get right: fewer rows than one
        // window, a ragged last window, one more row than the sample.
        ("rows-5".into(), uniform(5, 300, 40, 1)),
        ("rows-2049".into(), uniform(2049, 64, 9000, 2)),
        // What `perf/` generates at full size.
        ("perf rmat-11".into(), graph500(11, 8, 11)),
        ("perf rmat-12".into(), graph500(12, 8, 11)),
        ("perf uniform-4096".into(), uniform(4096, 4096, 16_384, 11)),
    ];
    let sbm_config = SbmConfig {
        nodes: 1024,
        classes: 4,
        p_in: 30.0 / 256.0,
        p_out: 19.0 / 768.0,
        feature_dim: 4,
        ..SbmConfig::default()
    };
    cases.push(("perf sbm-1024".into(), normalize_adjacency(&sbm(sbm_config, 11).adjacency)));
    // Twenty suite matrices cover every family at every size of its ladder.
    cases.extend(matrix_suite(20, 7).into_iter().map(|d| (d.name, d.matrix)));

    for (name, csr) in &cases {
        for n in [8, 32, 64, 128] {
            for gpu in GPUS {
                let what = format!("{name} n={n} {}", gpu.name);
                assert_same_choice(auto_tune(csr, n, gpu), tune_by_launching(csr, n, gpu), &what);
            }
        }
    }
}

#[test]
fn tuning_leaves_the_kernel_metrics_alone() {
    let _sanitize = SanitizeScope::off();
    let _chaos = ChaosScope::install(FaultPlan::new(0));
    let csr = uniform(512, 512, 6000, 5);
    let _trace = TraceScope::armed();
    let choice = auto_tune(&csr, 64, GpuSpec::H100_PCIE);
    assert!(choice.sampled_time > 0.0, "a real tune, not the degenerate fallback");
    let snap = fs_trace::snapshot();
    for counter in LAUNCH_COUNTERS {
        assert_eq!(snap.counter(counter), 0, "a tune is not served work: {}", counter.name());
    }
    assert_eq!(snap.site(Site::Tune).hist.count, 1);
    assert_eq!(snap.total_spans(), 1, "nothing but the tune span: {:?}", snap.span_counts());
}

#[test]
fn a_scoped_tune_still_launches_on_the_simulator() {
    // Small: six simulated launches per tune, four tunes.
    let csr = uniform(96, 80, 700, 1);
    let gpu = GpuSpec::RTX4090;
    type Tuner = fn(&CsrMatrix<f32>, usize, GpuSpec) -> TuneChoice;
    let faults = FaultPlan::new(3)
        .with_rate(FaultSite::FragBitFlip, 0.001)
        .with_rate(FaultSite::TxnDrop, 0.01);
    // Chaos armed, then the sanitizer armed; each tuner runs under a
    // freshly installed plan so both replay the same draw sequence.
    let phases: [(fn() -> SanitizeScope, FaultPlan); 2] =
        [(SanitizeScope::off, faults), (SanitizeScope::record, FaultPlan::new(0))];
    for (sanitize, plan) in phases {
        let _sanitize = sanitize();
        let observe = |tune: Tuner| {
            let _chaos = ChaosScope::install(plan.clone());
            let _trace = TraceScope::armed();
            assert_eq!(ExecMode::auto(), ExecMode::Simulate);
            let choice = tune(&csr, 16, gpu);
            let snap = fs_trace::snapshot();
            let launched = LAUNCH_COUNTERS.map(|c| snap.counter(c));
            (choice.to_bytes(), fs_chaos::report(), launched, fs_tcu::sanitize::recorded_count())
        };
        let got = observe(auto_tune);
        assert_eq!(got, observe(tune_by_launching), "same choice, draws, launches, violations");
        let (_, report, launched, violations) = got;
        assert_eq!(launched[3..], [0, 6], "six launches, all on the simulator");
        assert_eq!(violations, 0, "a well-formed sample records nothing");
        if plan.is_active() {
            assert!(report.evaluated[FaultSite::FragBitFlip.index()] > 0, "kernel sites reached");
        }
    }
}
