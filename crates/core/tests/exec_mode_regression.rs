//! Mode-routing regressions: enabling the sanitizer or chaos injection
//! must force the kernels back onto the full simulator. These tests
//! flip process-global mode flags, so they live in their own test
//! binary (separate process from the equivalence properties). The
//! one-kernel test lives here for the same reason: the f32 entry points
//! pick their mode automatically, so exercising both takes a scope.

use flashsparse::{
    spmm, spmm_overlapped, spmm_with, ExecPlan, SchedMode, ThreadMapping, TranslatedMatrix,
    TuneChoice,
};
use fs_chaos::{ChaosScope, FaultPlan, FaultSite};
use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::{ExecMode, KernelCounters, Precision, SanitizeScope};

fn small_launch() {
    let csr = CsrMatrix::from_coo(&random_uniform::<F16>(32, 32, 200, 5));
    let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
    let b = DenseMatrix::<F16>::from_fn(32, 16, |r, c| ((r + c) % 3) as f32);
    let (_, counters) = spmm(&me, &b, ThreadMapping::MemoryEfficient);
    assert!(counters.mma_count > 0);
}

#[test]
fn chaos_forces_the_simulate_path() {
    // FragBitFlip decisions are only evaluated inside the simulator's
    // mma_execute; a launch that (wrongly) took the fast path would
    // leave the evaluation counter untouched.
    let plan = FaultPlan::new(3).with_rate(FaultSite::FragBitFlip, 0.0001);
    let scope = ChaosScope::install(plan);
    assert_eq!(ExecMode::auto(), ExecMode::Simulate);
    let before = fs_chaos::report();
    small_launch();
    let after = fs_chaos::report().since(&before);
    assert!(
        after.evaluated[FaultSite::FragBitFlip.index()] > 0,
        "chaos-armed launch must run on the simulator"
    );
    drop(scope);
}

#[test]
fn sanitize_forces_the_simulate_path() {
    // A corrupt unwitnessed matrix distinguishes the paths: the
    // simulator records a violation, while the fast path would panic
    // before producing counters.
    let _scope = SanitizeScope::record();
    assert_eq!(ExecMode::auto(), ExecMode::Simulate);
    let csr = CsrMatrix::from_coo(&random_uniform::<F16>(32, 32, 200, 8));
    let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
    let mut cols = me.col_indices().to_vec();
    cols.swap(0, 1);
    let bad = MeBcrs::from_raw_parts(
        me.spec(),
        me.rows(),
        me.cols(),
        me.window_ptr().to_vec(),
        cols,
        me.values().to_vec(),
        me.nnz(),
    );
    let b = DenseMatrix::<F16>::from_fn(32, 16, |r, c| ((r + c) % 3) as f32);
    let (_, counters) = spmm(&bad, &b, ThreadMapping::MemoryEfficient);
    assert!(counters.sanitizer_violations > 0, "the simulate path must have validated");
    let _ = fs_tcu::sanitize::take_reports();
}

#[test]
fn quiet_process_defaults_to_fast() {
    // Neither switch armed: automatic selection is Fast. Holding both
    // scopes (sanitize off, an all-zero-rate chaos plan) serializes
    // against the armed tests above while leaving both switches off.
    let _sanitize = SanitizeScope::off();
    let _chaos = ChaosScope::install(FaultPlan::new(0));
    assert_eq!(ExecMode::auto(), ExecMode::Fast);
}

/// What `spmm_f32` must equal: cast B to the variant's storage type, run
/// the typed kernel (simulated whenever a scope forces it, `sched`
/// ignored then), widen the result.
fn typed_reference(
    t: &TranslatedMatrix,
    b: &DenseMatrix<f32>,
    mapping: ThreadMapping,
    sched: SchedMode,
) -> (DenseMatrix<f32>, KernelCounters) {
    let plan = ExecPlan { sched, ..ExecPlan::auto() };
    match t {
        TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => {
            let (c, k) = spmm_with(me, &b.cast::<F16>(), mapping, plan);
            (c.cast::<f32>(), k)
        }
        TranslatedMatrix::Tf32K4(me) => {
            let (c, k) = spmm_with(me, &b.cast::<Tf32>(), mapping, plan);
            (c.cast::<f32>(), k)
        }
    }
}

fn bits(m: &DenseMatrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn f32_entry_points_are_the_typed_kernel() {
    // The f32 entries never build an `S`-typed B or C on the fast path;
    // this pins them to the typed kernel that does, in output bits and
    // counters, so the casts cannot come back as a behavioural change.
    // 700 rows = 3 translation slabs with a ragged last window; N = 24
    // is off the 16-wide tile; the operand values are off both lattices.
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(700, 600, 9000, 5));
    let b = DenseMatrix::<f32>::from_fn(600, 24, |r, c| ((r * 3 + c) % 13) as f32 * 0.123_456_7);
    let scheds = [SchedMode::Sequential, SchedMode::WorkStealing { workers: 3 }];
    // Each phase holds a sanitize scope and then an all-zero-rate chaos
    // plan — the lock order of `quiet_process_defaults_to_fast` — so the
    // armed tests above can neither flip the mode nor inject mid-launch.
    for (precision, block_k) in [(Precision::Fp16, 8), (Precision::Fp16, 16), (Precision::Tf32, 4)]
    {
        for mapping in [ThreadMapping::Direct, ThreadMapping::MemoryEfficient] {
            let choice = TuneChoice { precision, block_k, mapping, sampled_time: 0.0 };
            let name = choice.variant_name();
            let t = TranslatedMatrix::translate(&csr, &choice);
            let fast = {
                let _sanitize = SanitizeScope::off();
                let _chaos = ChaosScope::install(FaultPlan::new(0));
                assert_eq!(ExecMode::auto(), ExecMode::Fast);
                let (got, got_k) = t.spmm_f32(&b, mapping);
                for sched in scheds {
                    let (want, want_k) = typed_reference(&t, &b, mapping, sched);
                    assert_eq!(bits(&got), bits(&want), "{name} fast {sched:?}");
                    assert_eq!(got_k, want_k, "{name} fast {sched:?} counters");
                    // Slab arrays start at other sector offsets, so the
                    // overlapped launch's traffic may differ by a few
                    // sectors; its MMA work may not.
                    let (over, over_k, _) = spmm_overlapped(&csr, &b, &choice, sched);
                    assert_eq!(bits(&over), bits(&want), "{name} overlapped {sched:?}");
                    assert_eq!(over_k.mma_count, want_k.mma_count, "{name} overlapped");
                    assert_eq!(over_k.tcu_flops, want_k.tcu_flops, "{name} overlapped");
                }
                (got, got_k)
            };
            let _sanitize = SanitizeScope::record();
            let _chaos = ChaosScope::install(FaultPlan::new(0));
            assert_eq!(ExecMode::auto(), ExecMode::Simulate);
            let (got, got_k) = t.spmm_f32(&b, mapping);
            let (want, want_k) = typed_reference(&t, &b, mapping, SchedMode::Sequential);
            assert_eq!(bits(&got), bits(&want), "{name} simulate");
            assert_eq!(got_k, want_k, "{name} simulate counters");
            assert_eq!(bits(&got), bits(&fast.0), "{name} simulate vs fast");
            assert_eq!(got_k, fast.1, "{name} simulate vs fast counters");
        }
    }
}

#[test]
fn overlapped_runs_the_simulator_when_a_scope_forces_it() {
    // `spmm_overlapped` is public: called under an armed sanitizer or
    // fault plan it must be the monolithic simulated launch (translate
    // whole, then `spmm_f32`), not a fast path that skips both.
    // 300 rows = two translation slabs with a ragged last window.
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(300, 200, 3000, 11));
    let b = DenseMatrix::<f32>::from_fn(200, 24, |r, c| ((r * 3 + c) % 13) as f32 * 0.123_456_7);
    let choice = TuneChoice::FALLBACK;
    let sched = SchedMode::WorkStealing { workers: 3 };
    let faults = FaultPlan::new(3).with_rate(FaultSite::FragBitFlip, 0.0001);
    // Chaos armed, then the sanitizer armed. Each phase holds a sanitize
    // scope and then a chaos scope (the lock order above), so no other
    // test's launch reaches the trace counters; the plan is re-installed
    // per launch so both replay the same fault draws.
    let phases: [(fn() -> SanitizeScope, FaultPlan); 2] =
        [(SanitizeScope::off, faults), (SanitizeScope::record, FaultPlan::new(0))];
    for (sanitize, plan) in phases {
        let _sanitize = sanitize();
        let (want, want_k) = {
            let _chaos = ChaosScope::install(plan.clone());
            assert_eq!(ExecMode::auto(), ExecMode::Simulate);
            TranslatedMatrix::translate(&csr, &choice).spmm_f32(&b, choice.mapping)
        };
        let _chaos = ChaosScope::install(plan.clone());
        let _trace = fs_trace::TraceScope::armed();
        let (got, got_k, format) = spmm_overlapped(&csr, &b, &choice, sched);
        let snap = fs_trace::snapshot();
        assert_eq!(snap.counter(fs_trace::TraceCounter::ExecSimulate), 1);
        assert_eq!(snap.counter(fs_trace::TraceCounter::ExecFast), 0);
        assert_eq!(snap.counter(fs_trace::TraceCounter::Overlaps), 0);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got_k, want_k);
        assert!(format.is_validated());
        assert_eq!((format.rows(), format.cols(), format.nnz()), (300, 200, csr.nnz()));
        if plan.is_active() {
            let evaluated = fs_chaos::report().evaluated[FaultSite::FragBitFlip.index()];
            assert!(evaluated > 0, "the launch must reach the kernel chaos sites");
        }
    }
}
