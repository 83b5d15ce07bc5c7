//! The FlashSparse SDDMM kernel (Section 3.4, Figures 8 and 9,
//! Algorithm 1).
//!
//! `C = (A × Bᵀ) ⊙ mask`: both inputs are dense (`A` is `M×K` row-major,
//! `B` is `N₂×K` row-major, i.e. the paper's column-major `K×N₂` right
//! operand), the output is sparse with the mask's pattern. With the
//! swap-and-transpose strategy the MMA computes a `Cᵀ` tile of 16 sampled
//! *columns* × the window's 8 rows, so the output sparse matrix is
//! partitioned in 8×1 vectors — half the vector height of the 16×1 SOTA —
//! and each MMA covers **16** nonzero vectors (two SpMM-sized TC blocks).
//!
//! The accumulation runs over `K` in chunks of the MMA `k` (8 for FP16,
//! 4 for TF32). The result is written back with the output-splitting
//! scheme of Algorithm 1: each 8×16 output tile is split into `8×k`
//! sub-blocks and scattered **directly into the ME-BCRS values layout**,
//! so the output feeds the subsequent SpMM without any format conversion
//! (the AGNN pipeline of Section 4.4).

use fs_format::MeBcrs;
use fs_matrix::DenseMatrix;
use fs_tcu::{
    mma_execute, ExecMode, FragKind, Fragment, KernelCounters, TrafficClass, TransactionCounter,
};

use crate::fast::sddmm_fast;
use crate::pipeline::{run_windows, ExecPlan};
use crate::sanitize_hooks::{validate_format, SddmmShadow, ViolationSnapshot};
use crate::variant::TcuPrecision;

/// Nonzero vectors covered by one MMA (the post-swap `m` dimension).
pub const VEC_GROUP: usize = 16;

/// FlashSparse SDDMM: `C = (A × Bᵀ) ⊙ mask`, output in ME-BCRS, under
/// [`ExecPlan::auto`].
///
/// `mask` supplies both the sampled pattern and a per-entry scale (use
/// unit values for pure sampling, e.g. graph attention). Returns the
/// output values laid out in `mask`'s own ME-BCRS structure, plus the
/// execution counters.
///
/// # Panics
/// See [`sddmm_with`].
pub fn sddmm<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    b: &DenseMatrix<S>,
) -> (MeBcrs<S>, KernelCounters) {
    sddmm_with(mask, a, b, ExecPlan::auto())
}

/// [`sddmm`] under an explicit [`ExecPlan`]. Both modes produce
/// bit-identical output values and counters, under every scheduler;
/// `Fast` skips the simulator scaffolding and is the production path
/// whenever sanitize and chaos are off.
///
/// # Panics
/// Panics on spec or dimension mismatch, or — in `Fast` mode — if an
/// unwitnessed `mask` fails the up-front structural validation.
pub fn sddmm_with<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    b: &DenseMatrix<S>,
    plan: ExecPlan,
) -> (MeBcrs<S>, KernelCounters) {
    assert_eq!(mask.spec(), S::SPEC, "format spec must match the kernel precision");
    assert_eq!(a.rows(), mask.rows(), "A rows must match mask rows");
    assert_eq!(b.rows(), mask.cols(), "B rows must match mask cols");
    assert_eq!(a.cols(), b.cols(), "A and B must share the inner dimension K");
    let (out, counters) = match plan.mode {
        ExecMode::Simulate => sddmm_simulated(mask, a, b),
        ExecMode::Fast => sddmm_fast(mask, a, b, plan.sched),
    };
    crate::spmm::trace_launch(plan.mode, &counters);
    (out, counters)
}

fn sddmm_simulated<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    b: &DenseMatrix<S>,
) -> (MeBcrs<S>, KernelCounters) {
    let mut values = vec![S::ZERO; mask.values().len()];

    let snapshot = ViolationSnapshot::take();
    validate_format(mask);
    let shadow = SddmmShadow::new_if_enabled(mask, a, b);

    // One worker: in order on the calling thread, so fault draws replay
    // byte for byte. Each window owns the values of its own vectors.
    let window_len = |w: usize| mask.vectors_in_window(w) * S::SHAPE.n;
    let mut counters = run_windows(mask, &mut values, window_len, 1, |w, out| {
        simulate_window(mask, a, b, w, out, shadow.as_ref())
    });
    snapshot.attribute(&mut counters);

    (mask.with_values(values), counters)
}

fn simulate_window<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    b: &DenseMatrix<S>,
    w: usize,
    out: &mut [S],
    shadow: Option<&SddmmShadow>,
) -> KernelCounters {
    let warp = w as u32; // lint: checked-cast — window index, far below 2^32
    let shape = S::SHAPE;
    let v = shape.n; // 8
    let k = shape.k;
    let kk = a.cols();
    let rows = mask.rows();
    let window_rows = (rows - w * v).min(v);
    let nv = mask.vectors_in_window(w);
    let window_val_base = mask.window_ptr()[w] * v;

    let mut counters = KernelCounters::default();
    if nv == 0 {
        return counters;
    }
    let mut tc = TransactionCounter::new();

    // Column indices for the whole window (the sampled output columns).
    let win_range = mask.window_ptr()[w]..mask.window_ptr()[w + 1];
    let win_cols = &mask.col_indices()[win_range.clone()];
    {
        let base = win_range.start as u64 * 4;
        let accesses: Vec<(u64, u32)> = (0..nv).map(|j| (base + j as u64 * 4, 4)).collect();
        tc.warp_load_shadowed(
            TrafficClass::Indices,
            shadow.map(|s| (&s.indices, warp)),
            accesses,
            &mut counters,
        );
    }

    let mut a_tile = vec![0.0f32; VEC_GROUP * k]; // Bᵀ slice: 16 sampled cols × k
    let mut b_tile = vec![0.0f32; k * v]; // Aᵀ slice: k × 8 window rows

    for jj0 in (0..nv).step_by(VEC_GROUP) {
        let group = (nv - jj0).min(VEC_GROUP);
        let mut c_frag = Fragment::zeros(shape, FragKind::CD);

        for k0 in (0..kk).step_by(k) {
            let kw = (kk - k0).min(k);

            // MMA left operand (16×k): rows of B at the sampled columns.
            a_tile.iter_mut().for_each(|x| *x = 0.0);
            let mut a_loads: Vec<(u64, u32)> = Vec::with_capacity(group);
            for jj in 0..group {
                let col = win_cols[jj0 + jj] as usize;
                let brow = b.row(col);
                for t in 0..kw {
                    a_tile[jj * k + t] = brow[k0 + t].to_f32();
                }
                a_loads.push((b.addr_of(col, k0), (kw * S::BYTES) as u32)); // lint: checked-cast - kw*BYTES <= 64
            }
            tc.warp_load_shadowed(
                TrafficClass::DenseOperand,
                shadow.map(|s| (&s.dense_b, warp)),
                a_loads,
                &mut counters,
            );

            // MMA right operand (k×8): the window's rows of A.
            b_tile.iter_mut().for_each(|x| *x = 0.0);
            let mut b_loads: Vec<(u64, u32)> = Vec::with_capacity(window_rows);
            for i in 0..window_rows {
                let arow = a.row(w * v + i);
                for t in 0..kw {
                    b_tile[t * v + i] = arow[k0 + t].to_f32();
                }
                // lint: checked-cast - kw*BYTES <= 64
                b_loads.push((a.addr_of(w * v + i, k0), (kw * S::BYTES) as u32));
            }
            tc.warp_load_shadowed(
                TrafficClass::DenseOperand,
                shadow.map(|s| (&s.dense_a, warp)),
                b_loads,
                &mut counters,
            );

            let a_frag = Fragment::from_tile(shape, FragKind::A, &a_tile);
            let b_frag = Fragment::from_tile(shape, FragKind::B, &b_tile);
            c_frag = mma_execute(shape, &a_frag, &b_frag, &c_frag, &mut counters);
        }

        // ---- Algorithm 1: output splitting into 8×k ME-BCRS sub-blocks. ----
        let c_tile = c_frag.to_tile(); // 16×8 row-major: (jj, i)
        for jj in 0..group {
            let jv = jj0 + jj; // vector index within the window
            let blk = jv / k;
            let jl = jv % k;
            for i in 0..window_rows {
                let m = mask.block_row(w, blk, i)[jl];
                if !m.is_zero() {
                    let idx = mask.value_index(w, blk, i, jl) - window_val_base;
                    out[idx] = S::from_f32(c_tile[jj * v + i] * m.to_f32());
                }
            }
        }
        // Store traffic: the CD fragment scatters per-register into the
        // ragged block layout (lines 9–15 of Algorithm 1): 4 requests of
        // per-lane element-sized accesses.
        for reg in 0..4usize {
            let mut accesses: Vec<(u64, u32)> = Vec::with_capacity(32);
            for lane in 0..32usize {
                let g = lane >> 2;
                let t = lane & 3;
                let jj = g + 8 * (reg >> 1); // tile row = vector in group
                let i = t * 2 + (reg & 1); // tile col = window row
                if jj < group && i < window_rows {
                    let jv = jj0 + jj;
                    let (blk, jl) = (jv / k, jv % k);
                    if !mask.block_row(w, blk, i)[jl].is_zero() {
                        // lint: checked-cast - BYTES is 2 or 4
                        accesses.push((mask.value_addr(w, blk, i, jl), S::BYTES as u32));
                    }
                }
            }
            tc.warp_store_shadowed(shadow.map(|s| (&s.output, warp)), accesses, &mut counters);
        }
    }

    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
    use fs_matrix::CsrMatrix;
    use fs_precision::{Tf32, F16};

    fn dense_inputs<S: TcuPrecision>(
        m: usize,
        n2: usize,
        kk: usize,
    ) -> (DenseMatrix<S>, DenseMatrix<S>) {
        let a = DenseMatrix::<S>::from_fn(m, kk, |r, c| (((r * 5 + c) % 13) as f32 - 6.0) * 0.125);
        let b =
            DenseMatrix::<S>::from_fn(n2, kk, |r, c| (((r * 3 + c * 7) % 11) as f32 - 5.0) * 0.125);
        (a, b)
    }

    fn check<S: TcuPrecision>(mask_csr: &CsrMatrix<S>, kk: usize, tol: f32) {
        let (a, b) = dense_inputs::<S>(mask_csr.rows(), mask_csr.cols(), kk);
        let mask = MeBcrs::from_csr(mask_csr, S::SPEC);
        let (out, counters) = sddmm(&mask, &a, &b);
        // Reference: mask ⊙ (A·Bᵀ). sddmm_reference takes B as cols×K.
        let reference = mask_csr.sddmm_reference(&a, &b);
        let out_dense = out.to_dense();
        let ref_dense = {
            let mut d = fs_matrix::DenseMatrix::<f32>::zeros(mask_csr.rows(), mask_csr.cols());
            for (r, c, v) in reference.iter() {
                d.set(r, c, v);
            }
            d
        };
        let diff = out_dense.max_abs_diff(&ref_dense);
        assert!(diff <= tol, "{}: max diff {diff} > {tol}", S::NAME);
        if mask_csr.nnz() > 0 {
            assert!(counters.mma_count > 0);
            assert!(counters.store_transactions > 0);
        }
    }

    #[test]
    fn fp16_matches_reference() {
        for seed in 0..3 {
            let mask =
                CsrMatrix::from_coo(&random_uniform::<F16>(64, 48, 400, seed)).with_unit_values();
            check(&mask, 32, 0.51);
        }
    }

    #[test]
    fn tf32_matches_reference() {
        for seed in 0..3 {
            let mask =
                CsrMatrix::from_coo(&random_uniform::<Tf32>(64, 48, 400, seed)).with_unit_values();
            check(&mask, 32, 1e-2);
        }
    }

    #[test]
    fn scaled_mask_values_are_applied() {
        let mask = CsrMatrix::from_coo(&random_uniform::<F16>(32, 32, 150, 7));
        check(&mask, 16, 0.51);
    }

    #[test]
    fn graph_attention_shape() {
        // AGNN-style: square adjacency mask, K = 32 hidden dim.
        let mask = CsrMatrix::from_coo(&rmat::<F16>(6, 6, RmatConfig::GRAPH500, true, 3))
            .with_unit_values();
        check(&mask, 32, 1.0);
    }

    #[test]
    fn ragged_k_dimension() {
        // K = 13: not a multiple of the MMA k → residue chunk zero-filled.
        let mask = CsrMatrix::from_coo(&random_uniform::<F16>(24, 40, 120, 1)).with_unit_values();
        check(&mask, 13, 0.51);
        check(&mask, 1, 0.51);
    }

    #[test]
    fn empty_mask() {
        let mask_csr = CsrMatrix::<F16>::empty(16, 16);
        let mask = MeBcrs::from_csr(&mask_csr, F16::SPEC);
        let (a, b) = dense_inputs::<F16>(16, 16, 8);
        let (out, counters) = sddmm(&mask, &a, &b);
        assert_eq!(out.num_vectors(), 0);
        assert_eq!(counters.mma_count, 0);
    }

    #[test]
    fn output_feeds_spmm_directly() {
        // The Figure 9 pipeline: SDDMM output (ME-BCRS) → SpMM, no
        // conversion. Verifies the output-splitting layout is exactly the
        // SpMM input layout.
        use crate::spmm::spmm;
        use crate::thread_map::ThreadMapping;
        let mask = CsrMatrix::from_coo(&random_uniform::<F16>(40, 40, 200, 9)).with_unit_values();
        let (a, b) = dense_inputs::<F16>(40, 40, 16);
        let me_mask = MeBcrs::from_csr(&mask, F16::SPEC);
        let (att, _) = sddmm(&me_mask, &a, &b);
        let feat = DenseMatrix::<F16>::from_fn(40, 16, |r, c| ((r + 2 * c) % 7) as f32 * 0.25);
        let (out, _) = spmm(&att, &feat, ThreadMapping::MemoryEfficient);
        // Reference: (mask ⊙ A·Bᵀ) × feat through the gold kernels.
        let ref_att = mask.sddmm_reference(&a, &b);
        let ref_att_f16: CsrMatrix<F16> = ref_att.cast();
        let reference = ref_att_f16.spmm_reference(&feat);
        let diff = out.max_abs_diff(&reference);
        assert!(diff <= 1.0, "pipeline diff {diff}");
    }

    #[test]
    fn mma_count_matches_analytic_formula() {
        let mask_csr =
            CsrMatrix::from_coo(&random_uniform::<F16>(64, 64, 600, 4)).with_unit_values();
        let mask = MeBcrs::from_csr(&mask_csr, F16::SPEC);
        let kk = 32;
        let (a, b) = dense_inputs::<F16>(64, 64, kk);
        let (_, counters) = sddmm(&mask, &a, &b);
        let expected: u64 = (0..mask.num_windows())
            .map(|w| (mask.vectors_in_window(w) as u64).div_ceil(VEC_GROUP as u64))
            .sum::<u64>()
            * (kk as u64).div_ceil(F16::SHAPE.k as u64);
        assert_eq!(counters.mma_count, expected);
    }
}
