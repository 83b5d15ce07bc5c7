//! Dual-mode equivalence properties: the fast path must be
//! **bit-identical** to the simulator — every output element and every
//! [`KernelCounters`] field — across precisions, MMA shapes, thread
//! mappings, and ragged shapes (rows not a multiple of the window,
//! dense columns not a multiple of the 16-wide tile, ragged last
//! blocks, ragged K), under every window scheduler (the simulator
//! ignores it) — and across operand *values* the arithmetic is
//! not closed over: `±inf`, `NaN`, FP16 overflow, signed zeros and
//! subnormals, which is what guards the fast path's finite-only zero
//! skip (`0 × inf = NaN` in the simulator).
//!
//! No sanitize/chaos scope is held here, so no global mode flags are
//! touched and the properties can run in parallel. The mode-routing
//! regression tests live in `exec_mode_regression.rs` (their scopes
//! would otherwise flip concurrently-running launches into Simulate).

use flashsparse::{
    sddmm_with, spmm, spmm_counters, spmm_fp16_k16, spmm_with, ExecPlan, SchedMode, TcuPrecision,
    ThreadMapping,
};
use fs_format::{MeBcrs, TcFormatSpec, WindowPattern};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use fs_precision::{Scalar, Tf32, F16};
use fs_tcu::{ExecMode, MmaShape};
use proptest::prelude::*;

const MAPPINGS: [ThreadMapping; 2] = [ThreadMapping::Direct, ThreadMapping::MemoryEfficient];
const MODES: [ExecMode; 2] = [ExecMode::Fast, ExecMode::Simulate];
/// Both spellings of one worker, a small pool, and one larger than the
/// host's core count.
const SCHEDS: [SchedMode; 4] = [
    SchedMode::Sequential,
    SchedMode::WorkStealing { workers: 1 },
    SchedMode::WorkStealing { workers: 3 },
    SchedMode::WorkStealing { workers: 7 },
];
/// The simulator as the oracle: it never reads the scheduler.
const ORACLE: ExecPlan = ExecPlan { mode: ExecMode::Simulate, sched: SchedMode::Sequential };
const FAST: ExecPlan = ExecPlan { mode: ExecMode::Fast, sched: SchedMode::Sequential };

/// Bit pattern of every stored element, widened exactly to f32 (the
/// widening preserves distinct f16/tf32 payloads including signed
/// zeros, so equal bit vectors ⇔ bit-identical storage).
fn dense_bits<S: Scalar>(m: &DenseMatrix<S>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_f32().to_bits()).collect()
}

fn value_bits<S: Scalar>(m: &MeBcrs<S>) -> Vec<u32> {
    m.values().iter().map(|v| v.to_f32().to_bits()).collect()
}

/// Sparse matrices with ragged windows and ragged last blocks, plus a
/// dense operand whose column count strays off the 16-wide tile.
fn arb_spmm_case() -> impl Strategy<Value = (CsrMatrix<f32>, usize, u64)> {
    (1usize..90, 1usize..70, 0usize..500, 1usize..40, 0u64..10_000).prop_map(
        |(r, c, nnz, n, seed)| {
            (CsrMatrix::from_coo(&random_uniform::<f32>(r, c, nnz, seed)), n, seed)
        },
    )
}

/// One layout of `S` (its own, or FP16's wide `k = 16`) under every
/// `mode × sched` plan: output bits and counters all equal the oracle's.
fn check_spmm<S: TcuPrecision>(spec: TcFormatSpec, csr: &CsrMatrix<f32>, n: usize, seed: u64) {
    let me = MeBcrs::from_csr(&csr.cast::<S>(), spec);
    let b = DenseMatrix::<S>::from_fn(csr.cols(), n, |r, c| {
        ((((r * 7 + c * 5 + seed as usize) % 17) as f32) - 8.0) * 0.25
    });
    for mapping in MAPPINGS {
        let (c_sim, k_sim) = spmm_with(&me, &b, mapping, ORACLE);
        for mode in MODES {
            for sched in SCHEDS {
                let (c, k) = spmm_with(&me, &b, mapping, ExecPlan { mode, sched });
                let what = format!("{} k{} {mapping:?} {mode:?} {sched:?}", S::NAME, spec.block_k);
                assert_eq!(dense_bits(&c_sim), dense_bits(&c), "{what} output");
                assert_eq!(k_sim, k, "{what} counters");
            }
        }
    }
}

/// [`dense_bits`] with every NaN mapped to one pattern. Which of two NaN
/// addends `a + b` returns is left open by IEEE 754 (x86 returns the
/// first, and its default NaN — `0 × inf`, `inf − inf` — is negative
/// where an input `f32::NAN` is positive); LLVM is free to commute the
/// add, so two compilations of the same sum (the simulator's scalar
/// loop, the fast path's vector loop) may disagree on a NaN's sign or
/// payload. That a result *is* NaN is exact, and is what this compares;
/// every other value, infinities and signed zeros included, by its bits.
fn dense_bits_nan_class<S: Scalar>(m: &DenseMatrix<S>) -> Vec<u32> {
    nan_class_bits(m.as_slice())
}

fn nan_class_bits<S: Scalar>(values: &[S]) -> Vec<u32> {
    values
        .iter()
        .map(|v| v.to_f32())
        .map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() })
        .collect()
}

/// [`value_bits`] with every NaN mapped to one pattern, for the reason
/// [`dense_bits_nan_class`] gives.
fn value_bits_nan_class<S: Scalar>(m: &MeBcrs<S>) -> Vec<u32> {
    nan_class_bits(m.values())
}

/// Dense-operand values the kernels' arithmetic is not closed over.
/// The first four make the panel non-finite for at least one precision
/// (`1e5` overflows FP16 but not TF32); the rest keep it finite, so the
/// zero skip runs against signed zeros and FP16 subnormals.
const SPECIALS: [f32; 9] = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1.0e5,
    -0.0,
    5.960_464_5e-8, // 2^-24, the smallest FP16 subnormal
    -3.0e-6,
    6.0e-5, // just under the smallest FP16 normal
    -65504.0,
];

/// A sparse/dense pair salted with special values: `special_mask` picks
/// which [`SPECIALS`] appear in B (so some cases keep the panel finite
/// and some do not); A gets explicit `-0.0` entries and tiny values
/// whose products underflow.
fn salted_case(
    csr: &CsrMatrix<f32>,
    n: usize,
    seed: u64,
    special_mask: u16,
) -> (CsrMatrix<f32>, DenseMatrix<f32>) {
    let mut a = csr.clone();
    for (i, v) in a.values_mut().iter_mut().enumerate() {
        match (i as u64 + seed) % 7 {
            0 => *v = -0.0,
            1 => *v = 6.0e-8,
            2 => *v = -1.0e-5,
            _ => {}
        }
    }
    (a, salted_dense(csr.cols(), n, seed, special_mask))
}

/// A `rows × n` dense operand carrying the [`SPECIALS`] that
/// `special_mask` selects among ordinary small values.
fn salted_dense(rows: usize, n: usize, seed: u64, special_mask: u16) -> DenseMatrix<f32> {
    let allowed: Vec<f32> = SPECIALS
        .iter()
        .enumerate()
        .filter(|(i, _)| special_mask >> i & 1 == 1)
        .map(|(_, &x)| x)
        .collect();
    DenseMatrix::<f32>::from_fn(rows, n, |r, c| {
        let h = (r * 31 + c * 17 + seed as usize) % 23;
        match allowed.get(h) {
            Some(&x) => x,
            None => ((h as f32) - 11.0) * 0.25,
        }
    })
}

/// A sparsity structure with the shapes block geometry must get right:
/// empty rows and a run of empty windows, a ragged last window (or fewer
/// rows than one window), one fully dense row, and a window's rows
/// landing on a handful of shared columns.
fn awkward_structure(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix<f32> {
    let pick = |salt: u64, bound: usize| {
        let h = (seed ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h ^ h >> 29) % bound as u64) as usize
    };
    let dense_row = pick(1, rows);
    let empty_from = pick(2, rows + 1);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        if r == dense_row {
            (0..cols).for_each(|c| coo.push(r, c, 1.0));
        } else if r % 3 != 0 && !(empty_from..empty_from + 17).contains(&r) {
            let base = pick(3 + (r / 8) as u64, cols);
            (0..per_row).for_each(|i| coo.push(r, (base + i * (1 + r % 4)) % cols, 0.5));
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// [`spmm_counters`] over the matrix's own structure, and over a
/// value-free [`WindowPattern`] viewed as this layout (the tuner's
/// route), against the counters a launch returns in both modes.
fn check_counters<S: TcuPrecision>(spec: TcFormatSpec, shape: MmaShape, csr: &CsrMatrix<f32>) {
    let me = MeBcrs::<S>::from_csr_cast(csr, spec);
    let pattern = WindowPattern::from_csr_rows(csr, 0..csr.rows(), spec.vector_len);
    for n in [1usize, 15, 16, 17, 64, 128, 300] {
        let b = DenseMatrix::<S>::zeros(csr.cols(), n);
        for mapping in MAPPINGS {
            let what = format!("{} k{} {mapping:?} n={n}", S::NAME, spec.block_k);
            let (_, k_sim) = spmm_with(&me, &b, mapping, ORACLE);
            let (_, k_fast) = spmm_with(&me, &b, mapping, FAST);
            assert_eq!(k_sim, k_fast, "{what} fast launch");
            assert_eq!(k_sim, spmm_counters(me.structure(), n, mapping, shape), "{what} structure");
            let view = pattern.structure(spec.block_k, S::BYTES);
            assert_eq!(k_sim, spmm_counters(view, n, mapping, shape), "{what} pattern view");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The probe is the launch's counters: every field, three layouts,
    /// both mappings, dense widths on and off the 16-wide tile.
    #[test]
    fn spmm_counters_are_the_launch_counters(
        case in (1usize..60, 1usize..70, 0usize..9, 0u64..1_000_000)
    ) {
        let (rows, cols, per_row, seed) = case;
        let csr = awkward_structure(rows, cols, per_row, seed);
        check_counters::<F16>(F16::SPEC, F16::SHAPE, &csr);
        check_counters::<F16>(TcFormatSpec::FLASH_FP16_K16, MmaShape::M16N8K16_F16, &csr);
        check_counters::<Tf32>(Tf32::SPEC, Tf32::SHAPE, &csr);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Non-finite, overflowing, signed-zero and subnormal operands:
    /// outputs and counters stay bit-identical for FP16-k8, FP16-k16 and
    /// TF32-k4 under both mappings, ragged rows and ragged N. With any
    /// `inf`/`NaN` in B the fast path must multiply every zero the
    /// simulator multiplies; with none it may skip them all, and no
    /// `-0.0` may appear or vanish either way. NaN results compare as
    /// NaN ([`dense_bits_nan_class`]).
    #[test]
    fn spmm_special_values_are_bit_identical(
        case in (
            1usize..60,
            1usize..50,
            0usize..400,
            prop::sample::select(vec![1usize, 15, 17, 130]),
            0u64..10_000,
            0u16..512,
        )
    ) {
        let (rows, cols, nnz, n, seed, special_mask) = case;
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(rows, cols, nnz, seed));
        let (a, b) = salted_case(&csr, n, seed, special_mask);
        fn check<S: TcuPrecision>(spec: TcFormatSpec, a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) {
            let me = MeBcrs::from_csr(&a.cast::<S>(), spec);
            let b = b.cast::<S>();
            for mapping in MAPPINGS {
                let (c_sim, k_sim) = spmm_with(&me, &b, mapping, ORACLE);
                let (c_fast, k_fast) = spmm_with(&me, &b, mapping, FAST);
                assert_eq!(
                    dense_bits_nan_class(&c_sim),
                    dense_bits_nan_class(&c_fast),
                    "{} k{} {mapping:?}",
                    S::NAME,
                    spec.block_k
                );
                assert_eq!(k_sim, k_fast, "{} k{} {mapping:?} counters", S::NAME, spec.block_k);
            }
        }
        check::<F16>(F16::SPEC, &a, &b);
        check::<Tf32>(Tf32::SPEC, &a, &b);
        check::<F16>(TcFormatSpec::FLASH_FP16_K16, &a, &b);
    }

    /// The SDDMM twin: the same special values salted into A and B, a
    /// mask carrying explicit `-0.0` and `0` (unmasked cells inside a
    /// stored vector), negative and FP16-subnormal scales, ragged K on
    /// both sides of the k-chunk (and the empty sum, K = 0), FP16 and
    /// TF32, three pool sizes. The fast path computes only the cells the
    /// mask keeps, so this fails if a kept cell is skipped (its value
    /// stays `+0`), if an unmasked cell's NaN or inf reaches a kept one,
    /// or if the store accounting loses a lane.
    #[test]
    fn sddmm_special_values_are_bit_identical(
        case in (
            1usize..60,
            1usize..50,
            0usize..400,
            prop::sample::select(vec![0usize, 1, 7, 8, 13, 32, 33]),
            0u64..10_000,
            (0u16..512, 0u16..512),
        )
    ) {
        let (rows, cols, nnz, kk, seed, (specials_a, specials_b)) = case;
        let mut mask = CsrMatrix::from_coo(&random_uniform::<f32>(rows, cols, nnz, seed));
        for (i, v) in mask.values_mut().iter_mut().enumerate() {
            match (i as u64 + seed) % 7 {
                0 => *v = -0.0,
                1 => *v = 0.0,
                2 => *v = 6.0e-8,
                3 => *v = -1.5,
                _ => {}
            }
        }
        let a = salted_dense(rows, kk, seed, specials_a);
        let b = salted_dense(cols, kk, seed + 1, specials_b);
        fn check<S: TcuPrecision>(
            mask: &CsrMatrix<f32>,
            a: &DenseMatrix<f32>,
            b: &DenseMatrix<f32>,
        ) {
            let mask = MeBcrs::from_csr(&mask.cast::<S>(), S::SPEC);
            let (a, b) = (a.cast::<S>(), b.cast::<S>());
            let (o_sim, k_sim) = sddmm_with(&mask, &a, &b, ORACLE);
            for workers in [1, 2, 7] {
                let plan = ExecPlan { sched: SchedMode::WorkStealing { workers }, ..FAST };
                let (o_fast, k_fast) = sddmm_with(&mask, &a, &b, plan);
                let what = format!("{} K={} workers={workers}", S::NAME, a.cols());
                assert_eq!(value_bits_nan_class(&o_sim), value_bits_nan_class(&o_fast), "{what}");
                assert_eq!(o_sim.nnz(), o_fast.nnz(), "{what} nnz");
                assert_eq!(k_sim, k_fast, "{what} counters");
            }
        }
        check::<F16>(&mask, &a, &b);
        check::<Tf32>(&mask, &a, &b);
    }

    /// FP16 `m16n8k8` SpMM: outputs and counters bit-identical.
    #[test]
    fn spmm_fp16_fast_is_bit_identical(case in arb_spmm_case()) {
        let (csr, n, seed) = case;
        check_spmm::<F16>(F16::SPEC, &csr, n, seed);
    }

    /// TF32 `m16n8k4` SpMM: outputs and counters bit-identical.
    #[test]
    fn spmm_tf32_fast_is_bit_identical(case in arb_spmm_case()) {
        let (csr, n, seed) = case;
        check_spmm::<Tf32>(Tf32::SPEC, &csr, n, seed);
    }

    /// FP16 `m16n8k16` SpMM (wide blocks): outputs and counters
    /// bit-identical — the same property, the layout being an input —
    /// and `spmm_fp16_k16` is `spmm` on that layout.
    #[test]
    fn spmm_k16_fast_is_bit_identical(case in arb_spmm_case()) {
        let (csr, n, seed) = case;
        check_spmm::<F16>(TcFormatSpec::FLASH_FP16_K16, &csr, n, seed);
        let me = MeBcrs::from_csr(&csr.cast::<F16>(), TcFormatSpec::FLASH_FP16_K16);
        let b = DenseMatrix::<F16>::from_fn(csr.cols(), n, |r, c| {
            ((((r * 3 + c * 11 + seed as usize) % 13) as f32) - 6.0) * 0.25
        });
        for mapping in MAPPINGS {
            let (c_any, k_any) = spmm(&me, &b, mapping);
            let (c_k16, k_k16) = spmm_fp16_k16(&me, &b, mapping);
            prop_assert_eq!(dense_bits(&c_any), dense_bits(&c_k16), "{:?} output", mapping);
            prop_assert_eq!(k_any, k_k16, "{:?} counters", mapping);
        }
    }

    /// SDDMM (FP16 and TF32, ragged K): output values and counters
    /// bit-identical. The mask keeps its generated (possibly negative)
    /// values so the masked-scale writeback path is exercised too.
    #[test]
    fn sddmm_fast_is_bit_identical(
        case in (1usize..70, 1usize..70, 0usize..350, 1usize..40, 0u64..10_000)
            .prop_map(|(r, c, nnz, kk, seed)| {
                (CsrMatrix::from_coo(&random_uniform::<f32>(r, c, nnz, seed)), kk, seed)
            })
    ) {
        let (csr, kk, seed) = case;
        fn check<S: TcuPrecision>(csr: &CsrMatrix<f32>, kk: usize, seed: u64) {
            let mask = MeBcrs::from_csr(&csr.cast::<S>(), S::SPEC);
            let a = DenseMatrix::<S>::from_fn(csr.rows(), kk, |r, c| {
                ((((r * 5 + c * 3 + seed as usize) % 11) as f32) - 5.0) * 0.25
            });
            let b = DenseMatrix::<S>::from_fn(csr.cols(), kk, |r, c| {
                ((((r * 2 + c * 7 + seed as usize) % 9) as f32) - 4.0) * 0.25
            });
            let (o_sim, k_sim) = sddmm_with(&mask, &a, &b, ORACLE);
            let (o_fast, k_fast) = sddmm_with(&mask, &a, &b, FAST);
            assert_eq!(value_bits(&o_sim), value_bits(&o_fast), "{} values", S::NAME);
            assert_eq!(o_sim.nnz(), o_fast.nnz(), "{} nnz", S::NAME);
            assert_eq!(k_sim, k_fast, "{} counters", S::NAME);
        }
        check::<F16>(&csr, kk, seed);
        check::<Tf32>(&csr, kk, seed);
    }
}
