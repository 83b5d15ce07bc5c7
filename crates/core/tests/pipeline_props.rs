//! Scheduler-equivalence properties: the work-stealing window scheduler
//! must be **bit-identical** to sequential execution — every output
//! element and every [`fs_tcu::KernelCounters`] field — regardless of
//! worker count, steal order, precision, mapping, or shape raggedness.
//!
//! Windows are data-parallel: each one owns a disjoint slice of the
//! output, and counters are all-`u64` sums, so any schedule must fold to
//! the same bits. These properties pin that invariant against future
//! scheduler changes (weighted LPT partition, steal-half, deque order).
//!
//! The skew cases concentrate every nonzero in a single row window so
//! one task carries all the weight — the degenerate partition that
//! exposed the tail-chunk imbalance the per-window slicing fix removed.
//!
//! No sanitize/chaos scope is held here (see `exec_mode_props.rs` for
//! why that keeps the properties parallel-safe).

use flashsparse::{sddmm_with, spmm_with, ExecPlan, SchedMode, TcuPrecision, ThreadMapping};
use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use fs_precision::{Scalar, Tf32, F16};
use proptest::prelude::*;

const MAPPINGS: [ThreadMapping; 2] = [ThreadMapping::Direct, ThreadMapping::MemoryEfficient];
/// Pool sizes to pit against the sequential reference: a small pool
/// (steals rare) and one larger than this host's core count (steals
/// constant, most workers start empty under the LPT partition).
const POOLS: [usize; 2] = [2, 7];

/// The automatic plan (the fast path: no scope is held) on `sched`.
fn on(sched: SchedMode) -> ExecPlan {
    ExecPlan { sched, ..ExecPlan::auto() }
}

/// Bit pattern of every stored element, widened exactly to f32 (the
/// widening preserves distinct f16/tf32 payloads including signed
/// zeros, so equal bit vectors ⇔ bit-identical storage).
fn dense_bits<S: Scalar>(m: &DenseMatrix<S>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_f32().to_bits()).collect()
}

fn value_bits<S: Scalar>(m: &MeBcrs<S>) -> Vec<u32> {
    m.values().iter().map(|v| v.to_f32().to_bits()).collect()
}

/// A matrix whose nonzeros all land in one 8-row window (`hot_base`),
/// while the row count spans many windows — the all-weight-in-one-task
/// skew that makes the LPT partition maximally lopsided.
fn one_hot_window(
    rows: usize,
    cols: usize,
    nnz: usize,
    hot_base: usize,
    seed: u64,
) -> CsrMatrix<f32> {
    let mut coo = CooMatrix::<f32>::new(rows, cols);
    let mut state = seed | 1;
    for i in 0..nnz {
        // xorshift64: cheap, deterministic, seed-dependent placement.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = hot_base + (state as usize) % 8.min(rows - hot_base);
        let c = (state >> 8) as usize % cols;
        coo.push(r, c, ((i % 13) as f32 - 6.0) * 0.5);
    }
    CsrMatrix::from_coo(&coo)
}

/// Ragged uniform sparsity: rows off the 8-row window, dense columns off
/// the 16-wide tile, ragged K blocks.
fn arb_uniform_case() -> impl Strategy<Value = (CsrMatrix<f32>, usize, u64)> {
    (1usize..90, 1usize..70, 0usize..500, 1usize..40, 0u64..10_000).prop_map(
        |(r, c, nnz, n, seed)| {
            (CsrMatrix::from_coo(&random_uniform::<f32>(r, c, nnz, seed)), n, seed)
        },
    )
}

/// Skewed sparsity: every nonzero in one window of a many-window matrix.
fn arb_skew_case() -> impl Strategy<Value = (CsrMatrix<f32>, usize, u64)> {
    (8usize..200, 1usize..70, 1usize..600, 1usize..40, 0u64..10_000).prop_map(
        |(r, c, nnz, n, seed)| {
            let hot = (seed as usize / 7) % (r / 8).max(1) * 8;
            (one_hot_window(r, c, nnz, hot, seed), n, seed)
        },
    )
}

fn check_spmm<S: TcuPrecision>(spec: TcFormatSpec, csr: &CsrMatrix<f32>, n: usize, seed: u64) {
    let me = MeBcrs::from_csr(&csr.cast::<S>(), spec);
    let b = DenseMatrix::<S>::from_fn(csr.cols(), n, |r, c| {
        ((((r * 7 + c * 5 + seed as usize) % 17) as f32) - 8.0) * 0.25
    });
    for mapping in MAPPINGS {
        let (c_seq, k_seq) = spmm_with(&me, &b, mapping, on(SchedMode::Sequential));
        for workers in POOLS {
            let (c_ws, k_ws) = spmm_with(&me, &b, mapping, on(SchedMode::WorkStealing { workers }));
            let what = format!("{} k{} {mapping:?} x{workers}", S::NAME, spec.block_k);
            assert_eq!(dense_bits(&c_seq), dense_bits(&c_ws), "{what} output");
            assert_eq!(k_seq, k_ws, "{what} counters");
        }
    }
}

fn check_sddmm<S: TcuPrecision>(csr: &CsrMatrix<f32>, kk: usize, seed: u64) {
    let mask = MeBcrs::from_csr(&csr.cast::<S>(), S::SPEC);
    let a = DenseMatrix::<S>::from_fn(csr.rows(), kk, |r, c| {
        ((((r * 5 + c * 3 + seed as usize) % 11) as f32) - 5.0) * 0.25
    });
    let b = DenseMatrix::<S>::from_fn(csr.cols(), kk, |r, c| {
        ((((r * 2 + c * 7 + seed as usize) % 9) as f32) - 4.0) * 0.25
    });
    let (o_seq, k_seq) = sddmm_with(&mask, &a, &b, on(SchedMode::Sequential));
    for workers in POOLS {
        let (o_ws, k_ws) = sddmm_with(&mask, &a, &b, on(SchedMode::WorkStealing { workers }));
        assert_eq!(value_bits(&o_seq), value_bits(&o_ws), "{} x{workers} values", S::NAME);
        assert_eq!(o_seq.nnz(), o_ws.nnz(), "{} x{workers} nnz", S::NAME);
        assert_eq!(k_seq, k_ws, "{} x{workers} counters", S::NAME);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// FP16 + TF32 SpMM over ragged uniform shapes: work stealing is
    /// bit-identical to sequential for outputs and counters.
    #[test]
    fn spmm_steal_is_bit_identical(case in arb_uniform_case()) {
        let (csr, n, seed) = case;
        check_spmm::<F16>(F16::SPEC, &csr, n, seed);
        check_spmm::<Tf32>(Tf32::SPEC, &csr, n, seed);
    }

    /// Same property with every nonzero packed into one window — the
    /// maximally imbalanced partition (one worker owns all weight, the
    /// rest can only steal).
    #[test]
    fn spmm_steal_survives_one_window_skew(case in arb_skew_case()) {
        let (csr, n, seed) = case;
        check_spmm::<F16>(F16::SPEC, &csr, n, seed);
        check_spmm::<Tf32>(Tf32::SPEC, &csr, n, seed);
    }

    /// FP16 `m16n8k16` (wide blocks): scheduler bit-identity holds for
    /// the k=16 layout too — the same property, the layout an input.
    #[test]
    fn spmm_k16_steal_is_bit_identical(case in arb_uniform_case()) {
        let (csr, n, seed) = case;
        check_spmm::<F16>(TcFormatSpec::FLASH_FP16_K16, &csr, n, seed);
    }

    /// SDDMM (FP16 and TF32, ragged K, uniform and skewed): scheduler
    /// bit-identity for output values, nnz, and counters.
    #[test]
    fn sddmm_steal_is_bit_identical(
        case in (1usize..70, 1usize..70, 0usize..350, 1usize..40, 0u64..10_000)
            .prop_map(|(r, c, nnz, kk, seed)| {
                (CsrMatrix::from_coo(&random_uniform::<f32>(r, c, nnz, seed)), kk, seed)
            })
    ) {
        let (csr, kk, seed) = case;
        check_sddmm::<F16>(&csr, kk, seed);
        check_sddmm::<Tf32>(&csr, kk, seed);
    }

    /// SDDMM under one-window skew.
    #[test]
    fn sddmm_steal_survives_one_window_skew(case in arb_skew_case()) {
        let (csr, kk, seed) = case;
        check_sddmm::<F16>(&csr, kk.min(40), seed);
    }
}
