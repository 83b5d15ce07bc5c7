//! The kernels under the sanitizer: a full SpMM + SDDMM run with every
//! check active must be violation-free, and a matrix corrupted after
//! translation must surface format violations through the regular
//! [`KernelCounters`] path.

use flashsparse::{sddmm, spmm, spmm_with, ExecPlan, ThreadMapping};
use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::sanitize::take_reports;
use fs_tcu::{ExecMode, SanitizeScope};

#[test]
fn spmm_is_clean_under_full_sanitize() {
    let _scope = SanitizeScope::record();
    let csr = CsrMatrix::from_coo(&random_uniform::<F16>(64, 48, 500, 2));
    let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
    let b = DenseMatrix::<F16>::from_fn(48, 33, |r, c| ((r + c) % 5) as f32 * 0.25);
    for mapping in [ThreadMapping::Direct, ThreadMapping::MemoryEfficient] {
        let (out, counters) = spmm(&me, &b, mapping);
        assert!(out.max_abs_diff(&csr.spmm_reference(&b)) < 0.51);
        assert_eq!(counters.sanitizer_violations, 0, "{mapping:?}");
    }
    assert!(take_reports().is_empty());
}

#[test]
fn tf32_spmm_is_clean_under_full_sanitize() {
    let _scope = SanitizeScope::record();
    let csr = CsrMatrix::from_coo(&random_uniform::<Tf32>(40, 40, 300, 6));
    let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_TF32);
    let b = DenseMatrix::<Tf32>::from_fn(40, 16, |r, c| ((r * 3 + c) % 7) as f32 * 0.125);
    let (_, counters) = spmm(&me, &b, ThreadMapping::MemoryEfficient);
    assert_eq!(counters.sanitizer_violations, 0);
    assert!(take_reports().is_empty());
}

#[test]
fn sddmm_is_clean_under_full_sanitize() {
    let _scope = SanitizeScope::record();
    let mask_csr = CsrMatrix::from_coo(&random_uniform::<F16>(48, 40, 300, 4)).with_unit_values();
    let mask = MeBcrs::from_csr(&mask_csr, TcFormatSpec::FLASH_FP16);
    let a = DenseMatrix::<F16>::from_fn(48, 24, |r, c| ((r + 2 * c) % 9) as f32 * 0.125);
    let b = DenseMatrix::<F16>::from_fn(40, 24, |r, c| ((r * 5 + c) % 11) as f32 * 0.125);
    let (_, counters) = sddmm(&mask, &a, &b);
    assert_eq!(counters.sanitizer_violations, 0);
    assert!(take_reports().is_empty());
}

#[test]
fn corrupt_format_surfaces_in_kernel_counters() {
    let _scope = SanitizeScope::record();
    let csr = CsrMatrix::from_coo(&random_uniform::<F16>(32, 32, 200, 8));
    let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
    // Swap two column indices inside window 0: the structure stays
    // loadable (all indices in range), but the strictly-ascending
    // invariant breaks — the kind of silent corruption validate() exists
    // to catch.
    let mut cols = me.col_indices().to_vec();
    assert!(me.vectors_in_window(0) >= 2, "need two vectors to swap");
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
    assert!(
        counters.sanitizer_violations > 0,
        "the corrupt ordering must be attributed to the launch"
    );
    let reports = take_reports();
    assert!(
        reports.iter().any(|v| v.to_string().contains("not strictly ascending")),
        "{reports:?}"
    );
}

fn corrupt_matrix() -> MeBcrs<F16> {
    let csr = CsrMatrix::from_coo(&random_uniform::<F16>(32, 32, 200, 8));
    let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
    let mut cols = me.col_indices().to_vec();
    cols.swap(0, 1);
    MeBcrs::from_raw_parts(
        me.spec(),
        me.rows(),
        me.cols(),
        me.window_ptr().to_vec(),
        cols,
        me.values().to_vec(),
        me.nnz(),
    )
}

#[test]
fn sanitize_off_reports_nothing_for_corrupt_format() {
    // Pinned to Simulate: with the sanitizer off the simulated kernel
    // runs corrupt input silently (no recording is active). The fast
    // path has a different contract, tested below.
    let _scope = SanitizeScope::off();
    let bad = corrupt_matrix();
    let b = DenseMatrix::<F16>::from_fn(32, 16, |r, c| ((r + c) % 3) as f32);
    let plan = ExecPlan { mode: ExecMode::Simulate, ..ExecPlan::auto() };
    let (_, counters) = spmm_with(&bad, &b, ThreadMapping::MemoryEfficient, plan);
    assert_eq!(counters.sanitizer_violations, 0);
    assert!(take_reports().is_empty());
}

#[test]
#[should_panic(expected = "well-formed ME-BCRS")]
fn fast_path_refuses_corrupt_unwitnessed_format() {
    // The fast path has no sanitizer to report against, so an unwitnessed
    // matrix that fails the one-time up-front validation is a hard error
    // rather than a silent wrong answer.
    let _scope = SanitizeScope::off();
    let bad = corrupt_matrix();
    let b = DenseMatrix::<F16>::from_fn(32, 16, |r, c| ((r + c) % 3) as f32);
    let plan = ExecPlan { mode: ExecMode::Fast, ..ExecPlan::auto() };
    let _ = spmm_with(&bad, &b, ThreadMapping::MemoryEfficient, plan);
}
