//! The FlashSparse SpMM kernel (Section 3.3, Figures 5 and 6).
//!
//! `C = A × B` with `A` sparse in ME-BCRS (8×1 vectors) and `B` dense.
//! Every MMA executes the swap-and-transpose product `Cᵀ = Bᵀ × Aᵀ`:
//!
//! * MMA **left** operand (`16×k`): the transposed dense block — 16
//!   consecutive columns of `B` at the `k` rows selected by the sparse
//!   block's vector column indices;
//! * MMA **right** operand (`k×8`): the transposed sparse TC block;
//! * MMA output (`16×8`): `Cᵀ` — 16 output columns × the window's 8 rows.
//!
//! One MMA therefore covers 8 sparse rows × `k` nonzero vectors × 16
//! output columns, twice the column coverage of the 16×1 SOTA layout at
//! half the vector height (Figure 6 vs Figure 2).
//!
//! Each row window is an independent warp's work, standing in for one of
//! the GPU's thread blocks. The simulated kernel runs its windows in
//! order on the calling thread — on purpose: fault-injection draws and
//! sanitizer reports then replay byte for byte — while the fast path
//! may spread them over a work-stealing pool ([`ExecPlan::sched`]).
//! Per-warp memory traffic is pushed through the 32-byte-sector
//! transaction simulator with the selected [`ThreadMapping`].

use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::DenseMatrix;
use fs_precision::F16;
use fs_tcu::{
    mma_execute, ExecMode, FragKind, Fragment, KernelCounters, MmaShape, Precision, ShadowRegion,
    TrafficClass, TransactionCounter,
};

use crate::fast::{spmm_fast, Operand};
use crate::pipeline::{run_windows, ExecPlan};
use crate::sanitize_hooks::{validate_format, SpmmShadow, ViolationSnapshot};
use crate::thread_map::{block_requests, ThreadMapping};
use crate::variant::TcuPrecision;

/// Width of the output column tile one MMA covers (the `m` dimension after
/// the swap).
pub const N_TILE: usize = 16;

/// FlashSparse SpMM: `C = A × B`, under [`ExecPlan::auto`].
///
/// Returns the output (stored at precision `S`, accumulated in f32 like the
/// hardware) and the execution counters. `mapping` selects the dense-load /
/// output-store thread mapping (the Figure 15 ablation). `a` may be in
/// `S`'s own layout or, for FP16, the wide `k = 16` one: the MMA shape
/// follows from `a.spec()`.
///
/// # Panics
/// See [`spmm_with`].
pub fn spmm<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    mapping: ThreadMapping,
) -> (DenseMatrix<S>, KernelCounters) {
    spmm_with(a, b, mapping, ExecPlan::auto())
}

/// [`spmm`] under an explicit [`ExecPlan`]. Both modes produce
/// bit-identical outputs and counters, under every scheduler; `Fast`
/// skips the simulator scaffolding (fragments, per-lane transaction
/// replay, per-launch validation of witnessed matrices) and is the
/// production path whenever sanitize and chaos are off.
///
/// # Panics
/// Panics if `a`'s layout is not one `S` has a kernel for, if the inner
/// dimensions disagree, or — in `Fast` mode — if an unwitnessed `a`
/// fails the up-front structural validation.
pub fn spmm_with<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    mapping: ThreadMapping,
    plan: ExecPlan,
) -> (DenseMatrix<S>, KernelCounters) {
    launch(a, b, mapping, plan, |shape| spmm_simulated(a, b, mapping, shape))
}

/// [`spmm`] with f32 on both sides of the kernel — the entry the serving
/// dispatch, the overlapped cold path's cached format and the GNN
/// operators share.
///
/// Bit-identical (output and counters) to casting `b` to `S`, running
/// [`spmm`] and widening the result — but on the fast path no `S`-typed
/// copy of `b` or of the output is made: `b` is rounded to the MMA
/// lattice once into the launch's f32 panel and each accumulator is
/// rounded straight into the f32 output. Under [`ExecMode::Simulate`]
/// (sanitize or chaos active) it performs exactly those casts around
/// the simulated kernel.
///
/// # Panics
/// See [`spmm_with`].
pub fn spmm_f32<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<f32>,
    mapping: ThreadMapping,
) -> (DenseMatrix<f32>, KernelCounters) {
    launch(a, b, mapping, ExecPlan::auto(), |shape| {
        let (out, counters) = spmm_simulated(a, &b.cast::<S>(), mapping, shape);
        (out.cast::<f32>(), counters)
    })
}

/// The one SpMM launch: check the operands, pick the MMA shape from the
/// layout, run `plan.mode`'s kernel, account the launch. `simulate` is
/// the caller's route onto the `S`-typed simulated kernel (direct for
/// typed operands, through casts for f32 ones).
fn launch<S: TcuPrecision, T: Operand<S>>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<T>,
    mapping: ThreadMapping,
    plan: ExecPlan,
    simulate: impl FnOnce(MmaShape) -> (DenseMatrix<T>, KernelCounters),
) -> (DenseMatrix<T>, KernelCounters) {
    let shape = kernel_shape::<S>(a.spec());
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (out, counters) = match plan.mode {
        ExecMode::Simulate => simulate(shape),
        ExecMode::Fast => spmm_fast(a, b, mapping, shape, plan.sched),
    };
    trace_launch(plan.mode, &counters);
    (out, counters)
}

/// The MMA shape that executes layout `spec` at precision `S`: `S`'s own
/// shape for its own layout, the wide `m16n8k16` for FP16's `k = 16` one.
///
/// # Panics
/// Panics if `S` has no kernel for `spec`.
pub(crate) fn kernel_shape<S: TcuPrecision>(spec: TcFormatSpec) -> MmaShape {
    let wide_fp16 = S::PRECISION == Precision::Fp16 && spec == TcFormatSpec::FLASH_FP16_K16;
    assert!(spec == S::SPEC || wide_fp16, "no {} kernel for layout {spec:?}", S::NAME);
    if wide_fp16 {
        MmaShape::M16N8K16_F16
    } else {
        S::SHAPE
    }
}

/// Attach one finished launch's work totals (and its exec mode) to the
/// trace registry. One relaxed load when tracing is disarmed.
pub(crate) fn trace_launch(mode: ExecMode, counters: &KernelCounters) {
    if !fs_trace::trace_enabled() {
        return;
    }
    use fs_trace::TraceCounter as C;
    fs_trace::add(C::Mmas, counters.mma_count + counters.wmma_count);
    fs_trace::add(C::Sectors, counters.load_transactions + counters.store_transactions);
    fs_trace::add(C::Bytes, counters.bytes_loaded + counters.bytes_stored);
    fs_trace::add(if mode.is_fast() { C::ExecFast } else { C::ExecSimulate }, 1);
}

/// [`spmm`] for callers that require the wide FP16 MMA (`mma.m16n8k16`):
/// sparse TC blocks are 8×16 instead of 8×8 — half the MMA instructions
/// per window at the cost of more zero fill in ragged blocks. The
/// block-width ablation of DESIGN.md.
///
/// # Panics
/// Panics if `a` was not built with [`TcFormatSpec::FLASH_FP16_K16`];
/// otherwise see [`spmm_with`].
pub fn spmm_fp16_k16(
    a: &MeBcrs<F16>,
    b: &DenseMatrix<F16>,
    mapping: ThreadMapping,
) -> (DenseMatrix<F16>, KernelCounters) {
    assert_eq!(a.spec(), TcFormatSpec::FLASH_FP16_K16, "k16 kernel requires the k=16 layout");
    spmm(a, b, mapping)
}

fn spmm_simulated<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    mapping: ThreadMapping,
    shape: MmaShape,
) -> (DenseMatrix<S>, KernelCounters) {
    assert_eq!(shape.precision, S::PRECISION, "shape precision must match the scalar");
    assert_eq!(shape.n, a.spec().vector_len, "vector height must equal the MMA n");
    assert_eq!(shape.k, a.spec().block_k, "block width must equal the MMA k");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let n = b.cols();
    let rows = a.rows();

    let snapshot = ViolationSnapshot::take();
    validate_format(a);

    let mut out = DenseMatrix::<S>::zeros(rows, n);
    let mut counters = if n == 0 || rows == 0 {
        KernelCounters::default()
    } else {
        let shadow = SpmmShadow::new_if_enabled(a, b, (rows * n * S::BYTES) as u64);
        let window_len = |w: usize| (rows - w * shape.n).min(shape.n) * n;
        run_windows(a, out.as_mut_slice(), window_len, 1, |w, out_window| {
            simulate_window(a, b, mapping, w, out_window, shape, shadow.as_ref())
        })
    };
    snapshot.attribute(&mut counters);

    (out, counters)
}

/// Simulate one warp processing one row window; writes the window's output
/// rows and returns its counters.
fn simulate_window<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    mapping: ThreadMapping,
    w: usize,
    out_window: &mut [S],
    shape: MmaShape,
    shadow: Option<&SpmmShadow>,
) -> KernelCounters {
    let v = shape.n;
    let k = shape.k;
    let n = b.cols();
    let rows = a.rows();
    let window_rows = (rows - w * v).min(v);
    let warp = w as u32; // lint: checked-cast — window index, far below 2^32

    let mut counters = KernelCounters::default();
    let num_blocks = a.blocks_in_window(w);
    if num_blocks == 0 {
        return counters;
    }
    let mut tc = TransactionCounter::new();

    // Column-index loads: once per block (4-byte indices, contiguous).
    for blk in 0..num_blocks {
        let w_b = a.block_width(w, blk);
        let base = (a.window_ptr()[w] + blk * k) as u64 * 4;
        let accesses: Vec<(u64, u32)> = (0..w_b).map(|j| (base + j as u64 * 4, 4)).collect();
        tc.warp_load_shadowed(
            TrafficClass::Indices,
            shadow.map(|s| (&s.indices, warp)),
            accesses,
            &mut counters,
        );
    }

    let mut a_tile = vec![0.0f32; N_TILE * k]; // Bᵀ block, row-major 16×k
    let mut b_tile = vec![0.0f32; k * v]; // Aᵀ block, row-major k×8

    for j0 in (0..n).step_by(N_TILE) {
        let tile_cols = (n - j0).min(N_TILE);
        let mut c_frag = Fragment::zeros(shape, FragKind::CD);

        for blk in 0..num_blocks {
            let w_b = a.block_width(w, blk);
            let cols = a.block_cols(w, blk);

            // ---- Sparse TC block Aᵀ → MMA right operand (k×8). ----
            b_tile.iter_mut().for_each(|x| *x = 0.0);
            for j in 0..window_rows {
                let row = a.block_row(w, blk, j);
                for (t, &val) in row.iter().enumerate() {
                    b_tile[t * v + j] = val.to_f32();
                }
            }
            let b_frag = Fragment::from_tile(shape, FragKind::B, &b_tile);
            count_sparse_load::<S>(
                a,
                w,
                blk,
                w_b,
                shape.k,
                shadow.map(|s| (&s.values, warp)),
                &mut tc,
                &mut counters,
            );

            // ---- Dense TC block Bᵀ → MMA left operand (16×k). ----
            a_tile.iter_mut().for_each(|x| *x = 0.0);
            for (t, &c) in cols.iter().enumerate() {
                let brow = b.row(c as usize);
                for i in 0..tile_cols {
                    a_tile[i * k + t] = brow[j0 + i].to_f32();
                }
            }
            let a_frag = Fragment::from_tile(shape, FragKind::A, &a_tile);
            let addr = |t: usize, i: usize| -> Option<u64> {
                if t < w_b && j0 + i < n {
                    Some(b.addr_of(cols[t] as usize, j0 + i))
                } else {
                    None
                }
            };
            // lint: checked-cast - BYTES is 2 or 4
            for req in block_requests(mapping, k, S::BYTES as u32, &addr) {
                tc.warp_load_shadowed(
                    TrafficClass::DenseOperand,
                    shadow.map(|s| (&s.dense, warp)),
                    req,
                    &mut counters,
                );
            }

            c_frag = mma_execute(shape, &a_frag, &b_frag, &c_frag, &mut counters);
        }

        // ---- Store Cᵀ (16×8) back as C rows (transposed write-back). ----
        let c_tile = c_frag.to_tile(); // row-major 16×8: (i, j)
        for j in 0..window_rows {
            for i in 0..tile_cols {
                out_window[j * n + j0 + i] = S::from_f32(c_tile[i * v + j]);
            }
        }
        let out_base = (w * v) as u64 * n as u64 * S::BYTES as u64;
        let addr = |j: usize, i: usize| -> Option<u64> {
            if j < window_rows && j0 + i < n {
                Some(out_base + (j * n + j0 + i) as u64 * S::BYTES as u64)
            } else {
                None
            }
        };
        // lint: checked-cast - BYTES is 2 or 4
        for req in block_requests(mapping, 8, S::BYTES as u32, &addr) {
            tc.warp_store_shadowed(shadow.map(|s| (&s.output, warp)), req, &mut counters);
        }
    }

    counters
}

/// Count the warp request loading a sparse TC block's values from the
/// ME-BCRS values array (always coalescable: block rows are contiguous).
#[allow(clippy::too_many_arguments)]
fn count_sparse_load<S: TcuPrecision>(
    a: &MeBcrs<S>,
    w: usize,
    blk: usize,
    w_b: usize,
    k: usize,
    shadow: Option<(&ShadowRegion, u32)>,
    tc: &mut TransactionCounter,
    counters: &mut KernelCounters,
) {
    let mut accesses: Vec<(u64, u32)> = Vec::with_capacity(64);
    match S::PRECISION {
        fs_tcu::Precision::Fp16 => {
            // Each lane holds block values (row g, vectors t·2 and t·2+1)
            // per 8-vector half of the block: adjacent in the row-major
            // block row → one 4-byte access per pair (k=8 → 1 pair,
            // k=16 → 2 pairs at vector offsets 0 and 8).
            for half in 0..k / 8 {
                for lane in 0..32usize {
                    let g = lane >> 2;
                    let t2 = (lane & 3) * 2 + half * 8;
                    if t2 + 1 < w_b {
                        accesses.push((a.value_addr(w, blk, g, t2), 4));
                    } else if t2 < w_b {
                        accesses.push((a.value_addr(w, blk, g, t2), 2));
                    }
                }
            }
        }
        fs_tcu::Precision::Tf32 => {
            // One 4-byte value per lane at (row g, vector t).
            for lane in 0..32usize {
                let g = lane >> 2;
                let t = lane & 3;
                if t < w_b {
                    accesses.push((a.value_addr(w, blk, g, t), 4));
                }
            }
        }
    }
    tc.warp_load_shadowed(TrafficClass::SparseValues, shadow, accesses, counters);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::{banded, random_uniform, rmat, RmatConfig};
    use fs_matrix::{CooMatrix, CsrMatrix};
    use fs_precision::{Tf32, F16};

    fn check_against_reference<S: TcuPrecision>(csr: &CsrMatrix<S>, n: usize, tol: f32) {
        let me = MeBcrs::from_csr(csr, S::SPEC);
        let b = DenseMatrix::<S>::from_fn(csr.cols(), n, |r, c| {
            (((r * 7 + c * 3) % 17) as f32 - 8.0) * 0.125
        });
        let reference = csr.spmm_reference(&b);
        for mapping in [ThreadMapping::Direct, ThreadMapping::MemoryEfficient] {
            let (c, counters) = spmm(&me, &b, mapping);
            let diff = c.max_abs_diff(&reference);
            assert!(diff <= tol, "{} {mapping:?}: max diff {diff} > {tol}", S::NAME);
            if csr.nnz() > 0 {
                assert!(counters.mma_count > 0);
            }
        }
    }

    #[test]
    fn fp16_matches_reference_uniform() {
        for seed in 0..3 {
            let csr = CsrMatrix::from_coo(&random_uniform::<F16>(64, 48, 500, seed));
            // f16 storage rounding makes the reference exact (same operands);
            // the only divergence is the output cast. Products of eighth-
            // integers are exact in f16 range here, so tolerance is tight.
            check_against_reference(&csr, 32, 0.51);
        }
    }

    #[test]
    fn tf32_matches_reference_uniform() {
        for seed in 0..3 {
            let csr = CsrMatrix::from_coo(&random_uniform::<Tf32>(64, 48, 500, seed));
            check_against_reference(&csr, 32, 1e-2);
        }
    }

    #[test]
    fn fp16_graph_matrix() {
        let csr = CsrMatrix::from_coo(&rmat::<F16>(7, 8, RmatConfig::GRAPH500, true, 5));
        check_against_reference(&csr, 128, 1.0);
    }

    #[test]
    fn banded_matrix_and_ragged_n() {
        let csr = CsrMatrix::from_coo(&banded::<F16>(50, &[-2, 0, 3], 1.0, 9));
        // N = 19: not a multiple of the 16-wide tile; rows 50: ragged window.
        check_against_reference(&csr, 19, 0.51);
        check_against_reference(&csr, 1, 0.51);
    }

    #[test]
    fn empty_and_zero_row_matrices() {
        let csr = CsrMatrix::<F16>::empty(32, 32);
        let me = MeBcrs::from_csr(&csr, F16::SPEC);
        let b = DenseMatrix::<F16>::from_fn(32, 16, |r, c| (r + c) as f32);
        let (c, counters) = spmm(&me, &b, ThreadMapping::MemoryEfficient);
        assert_eq!(c.max_abs_diff(&DenseMatrix::<f32>::zeros(32, 16)), 0.0);
        assert_eq!(counters.mma_count, 0);
        assert_eq!(counters.bytes_moved(), 0);
    }

    #[test]
    fn mma_count_matches_analytic_formula() {
        let csr = CsrMatrix::from_coo(&random_uniform::<F16>(128, 128, 1500, 3));
        let me = MeBcrs::from_csr(&csr, F16::SPEC);
        let n = 128;
        let (_, counters) =
            spmm(&me, &DenseMatrix::<F16>::zeros(128, n), ThreadMapping::MemoryEfficient);
        let expected: u64 =
            (0..me.num_windows()).map(|w| me.blocks_in_window(w) as u64).sum::<u64>()
                * (n as u64).div_ceil(N_TILE as u64);
        assert_eq!(counters.mma_count, expected);
    }

    #[test]
    fn coalesced_mapping_moves_fewer_bytes() {
        // The Figure 15 ablation, in miniature: identical results, fewer
        // transactions with the memory-efficient mapping.
        let csr = CsrMatrix::from_coo(&random_uniform::<F16>(128, 128, 2000, 11));
        let me = MeBcrs::from_csr(&csr, F16::SPEC);
        let b = DenseMatrix::<F16>::from_fn(128, 64, |r, c| ((r ^ c) % 7) as f32 * 0.25);
        let (c_direct, k_direct) = spmm(&me, &b, ThreadMapping::Direct);
        let (c_eff, k_eff) = spmm(&me, &b, ThreadMapping::MemoryEfficient);
        assert_eq!(c_direct.max_abs_diff(&c_eff), 0.0, "mapping must not change values");
        assert!(
            k_eff.transactions() < k_direct.transactions(),
            "eff={} direct={}",
            k_eff.transactions(),
            k_direct.transactions()
        );
        assert_eq!(k_eff.mma_count, k_direct.mma_count);
        // FP16 blocks: the dense-load part shrinks by exactly 2×; overall
        // (with sparse loads and stores included) it must be well below 1.
        let ratio = k_eff.bytes_loaded as f64 / k_direct.bytes_loaded as f64;
        assert!(ratio < 0.75, "ratio={ratio}");
    }

    #[test]
    fn fp16_accumulation_is_f32_not_f16() {
        // 2048 + 1 is not representable in f16; with f32 accumulation inside
        // the MMA the sum of many small values survives. Build a row with
        // 512 entries of 4.0 plus one 1.0: true sum 2049. Accumulated in
        // f16 it would get stuck at 2048; in f32 it rounds only on the
        // final store → 2048 (RNE of 2049 → 2048) vs naive f16 chain which
        // loses *all* later "+1"s... distinguish via 2050: entries summing
        // to 2050 exactly representable.
        let mut entries: Vec<(u32, u32, f32)> = (0..512).map(|j| (0u32, j, 4.0)).collect();
        entries.push((0, 512, 2.0));
        let csr = CsrMatrix::from_coo(&CooMatrix::from_entries(8, 513, entries)).cast::<F16>();
        let me = MeBcrs::from_csr(&csr, F16::SPEC);
        let b = DenseMatrix::<F16>::from_fn(513, 16, |_, _| 1.0);
        let (c, _) = spmm(&me, &b, ThreadMapping::MemoryEfficient);
        assert_eq!(c.get_f32(0, 0), 2050.0, "f32 accumulation must be exact here");
    }
}

#[cfg(test)]
mod k16_tests {
    use super::*;
    use fs_format::TcFormatSpec;
    use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
    use fs_matrix::CsrMatrix;
    use fs_precision::F16;

    #[test]
    fn k16_matches_reference() {
        for seed in 0..3 {
            let csr = CsrMatrix::from_coo(&random_uniform::<F16>(64, 64, 600, seed));
            let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16_K16);
            let b = DenseMatrix::<F16>::from_fn(64, 40, |r, c| {
                (((r * 3 + c) % 11) as f32 - 5.0) * 0.125
            });
            for mapping in [ThreadMapping::Direct, ThreadMapping::MemoryEfficient] {
                let (out, counters) = spmm_fp16_k16(&me, &b, mapping);
                let diff = out.max_abs_diff(&csr.spmm_reference(&b));
                assert!(diff < 0.51, "seed={seed} {mapping:?}: diff {diff}");
                assert!(counters.mma_count > 0);
            }
        }
    }

    #[test]
    fn k16_halves_mma_count_but_adds_fill() {
        // The block-width trade-off: k=16 needs at most half the MMAs of
        // k=8 (often more than half due to ragged blocks), while each MMA
        // does twice the FLOPs — net compute grows with the extra zero
        // fill on very sparse inputs.
        let csr = CsrMatrix::from_coo(&rmat::<F16>(8, 4, RmatConfig::GRAPH500, true, 9));
        let b = DenseMatrix::<F16>::zeros(csr.cols(), 64);
        let me8 = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        let me16 = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16_K16);
        let (_, k8) = spmm(&me8, &b, ThreadMapping::MemoryEfficient);
        let (_, k16) = spmm_fp16_k16(&me16, &b, ThreadMapping::MemoryEfficient);
        assert!(k16.mma_count < k8.mma_count, "k16 {} vs k8 {}", k16.mma_count, k8.mma_count);
        assert!(k16.mma_count * 2 >= k8.mma_count, "at most a 2x instruction reduction");
        assert!(
            k16.tcu_flops >= k8.tcu_flops,
            "wider blocks execute at least as many FLOPs ({} vs {})",
            k16.tcu_flops,
            k8.tcu_flops
        );
    }

    #[test]
    #[should_panic(expected = "k16 kernel requires the k=16 layout")]
    fn k16_rejects_k8_layout() {
        let csr = CsrMatrix::from_coo(&random_uniform::<F16>(16, 16, 32, 0));
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        let b = DenseMatrix::<F16>::zeros(16, 16);
        let _ = spmm_fp16_k16(&me, &b, ThreadMapping::Direct);
    }
}
