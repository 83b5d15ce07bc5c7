//! The fast execution path ([`fs_tcu::ExecMode::Fast`]).
//!
//! Bit-identical to the simulator — every operand on the same MMA
//! lattice, the same f32 accumulation order inside every MMA, the same
//! output rounding — with all simulator scaffolding removed. Both kernels
//! obey one rule: *every operand is rounded to the lattice exactly once
//! per launch, and the inner loop runs along contiguous panel rows.* For
//! SpMM:
//!
//! * **One panel per launch.** The dense operand is staged once into a
//!   launch-wide f32 [`Panel`] (split over the scheduler's workers):
//!   f32 operands are rounded with [`round_operand`], typed operands are
//!   only widened — a stored `F16`/`Tf32` is already a lattice point, so
//!   re-rounding it is the identity (`fs-precision`'s exhaustive
//!   `lattice_identity` test). The same holds for the sparse values,
//!   which are widened as they are multiplied. The simulator calls
//!   `round_operand` on every operand of every MMA; rounding is a pure
//!   idempotent function, so the operands it multiplies are these.
//! * **Row axpy instead of a gathered tile.** `Fragment::from_tile` /
//!   `to_tile` are exact bijections, so an MMA reduces to: for every
//!   window row `j` and output column `i`, `acc = Σ_t B[col_t][i]·A[j][t]`
//!   in ascending `t` from `+0.0`, then `C[j][i] += acc`. The fast path
//!   runs that sum for all columns `i` of a column tile at once: per TC
//!   block and window row it starts a partial accumulator row at `+0.0`,
//!   adds `a·panel_row` for `t = 0..w_b` (each a contiguous,
//!   autovectorised axpy), and folds the partial row into the window
//!   row's running sum. Per output cell this is the simulator's exact
//!   sequence of f32 operations — vector lanes never interact — so the
//!   bits cannot differ. Column tiles are [`COL_TILE`] wide so the
//!   window's accumulator rows, the partial row and the block's panel
//!   rows stay L1-resident.
//! * **Zero skip, guarded.** Most slots of an 8×1 vector are fill (84%
//!   on the scale-12 R-MAT the benchmark runs). A zero sparse value contributes `±0.0 · b`; when `b` is finite that is
//!   `±0.0`, and adding `±0.0` to an accumulator that is not `-0.0`
//!   returns it unchanged. No accumulator is ever `-0.0`: each starts at
//!   `+0.0`, and under round-to-nearest a sum is `-0.0` only when both
//!   addends are. So when — and only when — the panel is known finite,
//!   zero values (and block rows holding nothing else, whose fold would
//!   add `+0.0`) are skipped. With an `inf` or `NaN` anywhere in the
//!   panel `0 · inf = NaN` must propagate as it does in the simulator, so
//!   nothing is skipped. The zero-filled tail of a ragged block is
//!   `+0.0 · +0.0` in the simulator regardless of the panel and is
//!   always skipped. (One caveat on "bit-identical": when a sum meets
//!   two NaNs, which one the host's add returns is left open by IEEE 754
//!   and LLVM may commute the operands, so the simulator's scalar loop
//!   and this vector loop can disagree on a NaN result's sign or
//!   payload — never on its being NaN. `exec_mode_props` pins exactly
//!   that.)
//! * **Round on store.** Each accumulator is rounded once into the
//!   caller's element type ([`Operand::store`]): to `S` for the typed
//!   entry points, straight to an f32 lattice point for the f32 ones —
//!   no `S`-typed copy of B or C exists on the f32 path.
//! * **Analytic counters, apart from the numerics.** A launch's
//!   [`KernelCounters`] depend on the sparsity structure, `N`, the thread
//!   mapping and the element width — never on a value — so they are
//!   computed by one function over a [`Structure`] view
//!   (`spmm_window_counters`) that the launch calls per window and
//!   [`spmm_counters`] calls with no launch at all (the tuner's probe).
//!   MMA counts follow from block geometry; memory transactions come from
//!   [`AnalyticCounter`] over closed-form request spans
//!   ([`block_request_spans`]) instead of replaying per-lane accesses.
//!   Full 16-column tiles shift every address by 16 elements × 2 or 4
//!   bytes — a multiple of the 32-byte sector — so one computation is
//!   committed once per full tile (`times`).
//! * **No per-launch validation walk.** Matrices carrying the
//!   [`MeBcrs::is_validated`] witness skip it; unwitnessed ones are
//!   checked once up front (the fast path has no sanitizer to report
//!   violations, so it refuses malformed input outright).
//!
//! SDDMM obeys the same rule with both operands dense: A and B are each
//! staged once per launch into a [`Panel`] (typed operands, so staging
//! only widens), and a sampled output cell is one dot product of two
//! contiguous panel rows in the chained MMAs' order — a partial sum per
//! k-chunk from `+0.0` in ascending `t`, the partials folded in chunk
//! order. It is computed **only for cells the mask keeps**: the simulator
//! fills all 8×16 cells of every tile, but Algorithm 1's writeback reads a
//! cell only where the mask is nonzero and drops the rest whatever they
//! hold (`NaN` and `inf` included), and MMA cells never feed one another,
//! so the skip is structural — it needs no finiteness licence and cannot
//! change a bit (84% of the cells are fill on the benchmark's R-MAT). The
//! counters still describe the full tiles the hardware would issue.
//!
//! Windows are handed to `pipeline::run_windows`, the one window driver
//! the simulated kernels use too. Scratch buffers are thread-local and
//! grow-only, so a window allocates nothing once its thread has seen a
//! window of that size: with one worker the calling thread keeps its
//! scratch across launches; with more the pool spawns fresh scoped
//! threads per launch (`rayon::steal::run`), so each worker allocates
//! its scratch once per launch and reuses it across that launch's
//! windows.

use std::cell::RefCell;

use fs_format::{MeBcrs, Structure};
use fs_matrix::DenseMatrix;
use fs_precision::Scalar;
use fs_tcu::mma::round_operand;
use fs_tcu::{AnalyticCounter, KernelCounters, MmaShape, TrafficClass};
use rayon::steal;

use crate::pipeline::{run_windows, SchedMode};
use crate::sddmm::VEC_GROUP;
use crate::spmm::N_TILE;
use crate::thread_map::{block_request_spans, RequestSpan, ThreadMapping};
use crate::variant::TcuPrecision;

/// Output columns per numeric pass over a window. At this width the
/// window's 8 accumulator rows (8 KiB), the partial row (1 KiB) and the
/// up to 16 panel rows of one TC block (16 KiB) fit a 32 KiB L1 together.
const COL_TILE: usize = 256;

/// An element type on the outside of an SpMM launch for precision `S`:
/// how it enters the MMA lattice and how an accumulator leaves it.
pub(crate) trait Operand<S: TcuPrecision>: Scalar {
    /// The value as the MMA datapath sees it — a lattice point, in f32.
    fn load(self) -> f32;
    /// Round an f32 accumulator to the lattice and store it.
    fn store(acc: f32) -> Self;
}

/// Stored `S` values are lattice points already: widen in, round out.
impl<S: TcuPrecision> Operand<S> for S {
    #[inline]
    fn load(self) -> f32 {
        self.to_f32()
    }
    #[inline]
    fn store(acc: f32) -> S {
        S::from_f32(acc)
    }
}

/// f32 on both sides: round in, round out, never materialize an `S`.
impl<S: TcuPrecision> Operand<S> for f32 {
    #[inline]
    fn load(self) -> f32 {
        round_operand(self, S::PRECISION)
    }
    #[inline]
    fn store(acc: f32) -> f32 {
        round_operand(acc, S::PRECISION)
    }
}

/// The dense operand of one launch, rounded to the MMA lattice once and
/// held in f32 so the kernel streams its rows without conversion.
pub(crate) struct Panel {
    data: Vec<f32>,
    cols: usize,
    /// No element is `inf` or `NaN` — the licence for the zero skip.
    finite: bool,
}

impl Panel {
    /// Stage `b` for launches at precision `S`, split row-wise over the
    /// scheduler's workers.
    pub(crate) fn stage<S: TcuPrecision, T: Operand<S>>(
        b: &DenseMatrix<T>,
        sched: SchedMode,
    ) -> Panel {
        let mut data = vec![0.0f32; b.len()];
        let chunk = b.len().div_ceil(sched.workers()).max(1);
        let tasks: Vec<_> =
            b.as_slice().chunks(chunk).zip(data.chunks_mut(chunk)).map(|pair| (1, pair)).collect();
        let (finite, _) = steal::run(sched.workers(), tasks, |(src, dst)| {
            let mut finite = true;
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.load();
                finite &= d.is_finite();
            }
            finite
        });
        Panel { data, cols: b.cols(), finite: finite.into_iter().all(|f| f) }
    }

    /// Dense columns (the launch's `N`).
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Reusable per-thread scratch for the fused kernels.
#[derive(Default)]
struct FastScratch {
    /// One block row's partial accumulator (SpMM).
    partial: Vec<f32>,
    /// The window's running sums: 8 rows × [`COL_TILE`] (SpMM).
    c_tile: Vec<f32>,
    /// Per vector of the window, the bitmask of rows the mask keeps
    /// (SDDMM).
    kept: Vec<u8>,
    /// Closed-form transaction accounting.
    counter: AnalyticCounter,
}

thread_local! {
    static SCRATCH: RefCell<FastScratch> = RefCell::new(FastScratch::default());
}

/// Grow-only resize: never shrinks, so a thread stops allocating once
/// it has seen its largest window.
#[inline]
fn reserve(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// The fast path's stand-in for the per-launch `validate_format` walk:
/// witnessed matrices skip it; unwitnessed ones are checked once.
///
/// # Panics
/// Panics when an unwitnessed matrix fails validation — the fast path
/// has no sanitizer to record violations against.
fn ensure_valid<S: Scalar>(m: &MeBcrs<S>) {
    if !m.is_validated() {
        let violations = m.validate();
        assert!(
            violations.is_empty(),
            "fast path requires a well-formed ME-BCRS matrix: {violations:?}"
        );
    }
}

/// Fused SpMM (`C = A × B`), bit-identical to the simulated kernel, for
/// typed (`T = S`) or f32 operands. Dimension/spec assertions are the
/// dispatching caller's job.
pub(crate) fn spmm_fast<S: TcuPrecision, T: Operand<S>>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<T>,
    mapping: ThreadMapping,
    shape: MmaShape,
    sched: SchedMode,
) -> (DenseMatrix<T>, KernelCounters) {
    let mut out = DenseMatrix::<T>::zeros(a.rows(), b.cols());
    let panel = Panel::stage::<S, T>(b, sched);
    let counters = spmm_fast_into(a, &panel, mapping, shape, out.as_mut_slice(), sched);
    (out, counters)
}

/// Fused SpMM against an already staged panel into a caller-owned
/// `rows × n` output slice — the slab entry point the overlapped cold
/// path uses to execute each translated row-window slab directly into
/// its region of the full output, all slabs sharing one panel.
pub(crate) fn spmm_fast_into<S: TcuPrecision, T: Operand<S>>(
    a: &MeBcrs<S>,
    panel: &Panel,
    mapping: ThreadMapping,
    shape: MmaShape,
    out: &mut [T],
    sched: SchedMode,
) -> KernelCounters {
    ensure_valid(a);
    let v = shape.n;
    let n = panel.cols();
    let rows = a.rows();
    assert_eq!(out.len(), rows * n, "output slice must be rows × n");
    if n == 0 || rows == 0 {
        return KernelCounters::default();
    }
    let spans = SpmmSpans::new(mapping, shape);
    let structure = a.structure();

    // Every window (including the ragged final one) gets its true
    // `window_rows × n` slice.
    let window_len = |w: usize| (rows - w * v).min(v) * n;
    run_windows(a, out, window_len, sched.workers(), |w, out_window| {
        SCRATCH.with(|cell| {
            let FastScratch { partial, c_tile, counter, .. } = &mut *cell.borrow_mut();
            let mut counters = KernelCounters::default();
            spmm_window_counters(&structure, w, n, shape, &spans, counter, &mut counters);
            spmm_window(a, panel, w, out_window, shape, partial, c_tile);
            counters
        })
    })
}

/// The warp-request shapes of one SpMM launch: dense-operand loads follow
/// the MMA's `k`, output stores its 8 rows.
struct SpmmSpans {
    load: Vec<RequestSpan>,
    store: Vec<RequestSpan>,
}

impl SpmmSpans {
    fn new(mapping: ThreadMapping, shape: MmaShape) -> SpmmSpans {
        SpmmSpans {
            load: block_request_spans(mapping, shape.k),
            store: block_request_spans(mapping, 8),
        }
    }
}

/// The [`KernelCounters`] of an SpMM launch over `structure` against an
/// `n`-column dense operand — field for field what [`crate::spmm_with`]
/// returns for a matrix of that structure under either [`ExecMode`], with
/// no panel, no output, no values and no threads. The counters are a
/// function of the sparsity structure, `n`, the mapping and the element
/// width only, so this *is* the launch's counter pass (the fast launch
/// calls the same per-window function), which is what lets the tuner score
/// a configuration without running it.
///
/// [`ExecMode`]: fs_tcu::ExecMode
pub fn spmm_counters(
    structure: Structure<'_>,
    n: usize,
    mapping: ThreadMapping,
    shape: MmaShape,
) -> KernelCounters {
    let mut counters = KernelCounters::default();
    if n == 0 || structure.rows == 0 {
        return counters;
    }
    let spans = SpmmSpans::new(mapping, shape);
    let mut ac = AnalyticCounter::new();
    for w in 0..structure.num_windows() {
        spmm_window_counters(&structure, w, n, shape, &spans, &mut ac, &mut counters);
    }
    counters
}

/// One window's share of an SpMM launch's counters: MMA geometry, then
/// index, sparse-value and dense-operand loads per block, then the output
/// store scatter.
fn spmm_window_counters(
    a: &Structure<'_>,
    w: usize,
    n: usize,
    shape: MmaShape,
    spans: &SpmmSpans,
    ac: &mut AnalyticCounter,
    counters: &mut KernelCounters,
) {
    let v = shape.n;
    let k = shape.k;
    let bytes = a.elem_bytes;
    let window_rows = (a.rows - w * v).min(v);
    let num_blocks = a.blocks_in_window(w);
    if num_blocks == 0 {
        return;
    }

    let full_tiles = n / N_TILE;
    let ragged = n % N_TILE;
    let n_tiles = (full_tiles + usize::from(ragged > 0)) as u64;

    // ---- MMA counters from block geometry. ----
    counters.mma_count += num_blocks as u64 * n_tiles;
    counters.tcu_flops += num_blocks as u64 * n_tiles * shape.flops();

    // ---- Memory traffic, one pass over the blocks. ----
    for blk in 0..num_blocks {
        let w_b = a.block_width(w, blk);
        let cols = a.block_cols(w, blk);

        // Column indices: one request per block, once per window.
        ac.range((a.window_ptr[w] + blk * k) as u64 * 4, w_b as u64 * 4);
        ac.load(TrafficClass::Indices, counters, 1);

        // Sparse values: one warp request per block whose lanes cover,
        // for each of the 8 fragment rows, the row's full `w_b` elements
        // contiguously (FP16 paired 4-byte loads + ragged 2-byte tail,
        // TF32 per-lane 4-byte loads — both unions are the whole row).
        // A block stores its rows back to back, so the eight row ranges
        // are one range: the whole block. The request addresses are
        // tile-independent, so it repeats verbatim at every column tile.
        ac.range(a.value_addr(w, blk, 0, 0), (8 * w_b * bytes) as u64);
        ac.load(TrafficClass::SparseValues, counters, n_tiles);

        // Dense operand: full tiles shift addresses by 32 or 64 bytes —
        // whole sectors — so one computation covers them all; the ragged
        // tail tile is computed separately.
        if full_tiles > 0 {
            dense_loads(ac, counters, bytes, n, cols, 0, N_TILE, &spans.load, full_tiles as u64);
        }
        if ragged > 0 {
            let j0 = full_tiles * N_TILE;
            dense_loads(ac, counters, bytes, n, cols, j0, ragged, &spans.load, 1);
        }
    }

    // ---- Output stores: same tile-shift collapse. ----
    let out_base = (w * v) as u64 * n as u64 * bytes as u64;
    let mut store = |j0: usize, tile_cols: usize, times: u64| {
        for span in &spans.store {
            let width = span.col_hi.min(tile_cols).saturating_sub(span.col_lo);
            if width > 0 {
                for &r in &span.rows {
                    if r < window_rows {
                        ac.range(
                            out_base + ((r * n + j0 + span.col_lo) * bytes) as u64,
                            (width * bytes) as u64,
                        );
                    }
                }
            }
            ac.store(counters, times);
        }
    };
    if full_tiles > 0 {
        store(0, N_TILE, full_tiles as u64);
    }
    if ragged > 0 {
        store(full_tiles * N_TILE, ragged, 1);
    }
}

/// One window's numerics: row axpy over the staged panel (module doc).
fn spmm_window<S: TcuPrecision, T: Operand<S>>(
    a: &MeBcrs<S>,
    panel: &Panel,
    w: usize,
    out_window: &mut [T],
    shape: MmaShape,
    partial: &mut Vec<f32>,
    acc: &mut Vec<f32>,
) {
    let v = shape.n;
    let k = shape.k;
    let n = panel.cols();
    let window_rows = (a.rows() - w * v).min(v);
    let num_blocks = a.blocks_in_window(w);
    if num_blocks == 0 {
        return;
    }

    let stored = &a.values()[a.window_ptr()[w] * v..a.window_ptr()[w + 1] * v];
    let skip_zeros = panel.finite;
    reserve(acc, v * COL_TILE);
    reserve(partial, COL_TILE);

    for j0 in (0..n).step_by(COL_TILE) {
        let width = (n - j0).min(COL_TILE);
        let acc = &mut acc[..window_rows * width];
        let partial = &mut partial[..width];
        acc.fill(0.0);

        for blk in 0..num_blocks {
            let w_b = a.block_width(w, blk);
            let cols = a.block_cols(w, blk);
            // A block stores its 8 rows `w_b` wide, row-major; every
            // block before the window's last is a full `k` wide.
            let blk_vals = &stored[blk * k * v..][..v * w_b];

            for (row_vals, acc_row) in blk_vals.chunks_exact(w_b).zip(acc.chunks_exact_mut(width)) {
                // Same accumulation order as `mma_execute`: a fresh
                // partial sum per block, ascending t, folded into the
                // running sum after the block.
                let mut live = false;
                for (&sv, &c) in row_vals.iter().zip(cols) {
                    // The fill is stored `+0.0`. (`F16` compares bits,
                    // so a stored `-0.0` is multiplied like any value;
                    // `Tf32` compares as f32 and skips it. Both are the
                    // identity on the sum.)
                    if skip_zeros && sv == S::ZERO {
                        continue;
                    }
                    if !live {
                        partial.fill(0.0);
                        live = true;
                    }
                    // A stored value is a lattice point: widening it is
                    // all the rounding `round_operand` would do.
                    let av = sv.to_f32();
                    let brow = &panel.row(c as usize)[j0..j0 + width];
                    for (p, &bv) in partial.iter_mut().zip(brow) {
                        *p += bv * av;
                    }
                }
                if live {
                    for (c, &p) in acc_row.iter_mut().zip(partial.iter()) {
                        *c += p;
                    }
                }
            }
        }

        for (out_row, acc_row) in out_window.chunks_exact_mut(n).zip(acc.chunks_exact(width)) {
            for (o, &c) in out_row[j0..j0 + width].iter_mut().zip(acc_row) {
                *o = T::store(c);
            }
        }
    }
}

/// Commit one column tile's dense-operand requests from the closed-form
/// spans, clipped to the block's valid rows (`cols.len()`) and the tile's
/// valid columns (`tile_cols`). Addresses are those of the `bytes`-wide
/// typed `rows × n` operand the simulated kernel loads.
#[allow(clippy::too_many_arguments)]
fn dense_loads(
    ac: &mut AnalyticCounter,
    counters: &mut KernelCounters,
    bytes: usize,
    n: usize,
    cols: &[u32],
    j0: usize,
    tile_cols: usize,
    spans: &[RequestSpan],
    times: u64,
) {
    for span in spans {
        let width = span.col_hi.min(tile_cols).saturating_sub(span.col_lo);
        if width > 0 {
            for &r in &span.rows {
                if r < cols.len() {
                    ac.range(
                        ((cols[r] as usize * n + j0 + span.col_lo) * bytes) as u64,
                        (width * bytes) as u64,
                    );
                }
            }
        }
        ac.load(TrafficClass::DenseOperand, counters, times);
    }
}

/// Fused SDDMM (`C = (A × Bᵀ) ⊙ mask`), bit-identical to the simulated
/// kernel. Dimension/spec assertions are the dispatching caller's job.
pub(crate) fn sddmm_fast<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    b: &DenseMatrix<S>,
    sched: SchedMode,
) -> (MeBcrs<S>, KernelCounters) {
    ensure_valid(mask);
    let mut values = vec![S::ZERO; mask.values().len()];
    // Typed operands are lattice points: staging widens, it does not round.
    let a = Panel::stage::<S, S>(a, sched);
    let b = Panel::stage::<S, S>(b, sched);
    // Each window owns the values of its own vectors.
    let window_len = |w: usize| mask.vectors_in_window(w) * S::SHAPE.n;
    let counters = run_windows(mask, &mut values, window_len, sched.workers(), |w, out| {
        SCRATCH.with(|cell| {
            let mut counters = KernelCounters::default();
            sddmm_window(mask, &a, &b, w, out, &mut cell.borrow_mut(), &mut counters);
            counters
        })
    });
    (mask.with_values(values), counters)
}

/// One sampled dot product `Σ_t b[t]·a[t]` in the chained MMAs' order:
/// a partial sum per k-chunk from `+0.0` in ascending `t`, the partials
/// folded in chunk order. The simulator pads a ragged last chunk with
/// `+0.0 · +0.0` and no partial sum is ever `-0.0`, so neither that
/// padding nor folding an empty tail's `+0.0` changes a bit;
/// `chunks_exact` gives the full chunks a constant trip count.
#[inline]
fn chunked_dot(b: &[f32], a: &[f32], k: usize) -> f32 {
    #[inline]
    fn partial(b: &[f32], a: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (&bv, &av) in b.iter().zip(a) {
            acc += bv * av;
        }
        acc
    }
    let (bc, ac) = (b.chunks_exact(k), a.chunks_exact(k));
    let tail = partial(bc.remainder(), ac.remainder());
    let mut d = 0.0f32;
    for (b, a) in bc.zip(ac) {
        d += partial(b, a);
    }
    d + tail
}

fn sddmm_window<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &Panel,
    b: &Panel,
    w: usize,
    out: &mut [S],
    scratch: &mut FastScratch,
    counters: &mut KernelCounters,
) {
    let shape = S::SHAPE;
    let (v, k, kk) = (shape.n, shape.k, a.cols());
    let window_rows = (mask.rows() - w * v).min(v);
    let nv = mask.vectors_in_window(w);
    if nv == 0 {
        return;
    }
    let FastScratch { kept, counter: ac, .. } = scratch;

    let win_range = mask.window_ptr()[w]..mask.window_ptr()[w + 1];
    let win_cols = &mask.col_indices()[win_range.clone()];
    let window_val_base = win_range.start * v;
    let stored = &mask.values()[window_val_base..window_val_base + nv * v];

    // ---- Numerics: one dot product per cell the mask keeps (module
    // doc); `kept[jv]` remembers vector `jv`'s kept rows for the store
    // accounting below.
    kept.clear();
    kept.resize(nv, 0);
    for (blk, cols) in win_cols.chunks(k).enumerate() {
        // A block stores its 8 rows `cols.len()` wide, row-major.
        let base = blk * k * v;
        for i in 0..window_rows {
            let arow = a.row(w * v + i);
            let row = base + i * cols.len();
            for (jl, &c) in cols.iter().enumerate() {
                let m = stored[row + jl];
                if !m.is_zero() {
                    kept[blk * k + jl] |= 1 << i;
                    let d = chunked_dot(b.row(c as usize), arow, k);
                    out[row + jl] = S::from_f32(d * m.to_f32());
                }
            }
        }
    }

    // ---- Counters. Column indices: one request for the whole window.
    ac.range(win_range.start as u64 * 4, nv as u64 * 4);
    ac.load(TrafficClass::Indices, counters, 1);

    let groups = nv.div_ceil(VEC_GROUP) as u64;
    let chunks = kk.div_ceil(k) as u64;
    counters.mma_count += groups * chunks;
    counters.tcu_flops += groups * chunks * shape.flops();

    // Dense loads at the `S`-typed operands' addresses: per k-chunk one
    // A-rows request — the same for every vector group, so `times =
    // groups` — and one B-rows request per group (the k-chunk stride is
    // below a sector, so no tile collapse).
    for k0 in (0..kk).step_by(k) {
        let bytes = ((kk - k0).min(k) * S::BYTES) as u64;
        for i in 0..window_rows {
            ac.range((((w * v + i) * kk + k0) * S::BYTES) as u64, bytes);
        }
        ac.load(TrafficClass::DenseOperand, counters, groups);
        for group_cols in win_cols.chunks(VEC_GROUP) {
            for &c in group_cols {
                ac.range(((c as usize * kk + k0) * S::BYTES) as u64, bytes);
            }
            ac.load(TrafficClass::DenseOperand, counters, 1);
        }
    }

    // Store traffic: the scatter is mask-dependent, so enumerate the
    // surviving lanes of each group's 4 register requests (lane `4g + t`
    // of register `reg` holds vector `g + 8·(reg / 2)`, row `2t + reg % 2`).
    for jj0 in (0..nv).step_by(VEC_GROUP) {
        for reg in 0..4usize {
            let half = jj0 + 8 * (reg >> 1);
            for (jv, &kept_rows) in kept.iter().enumerate().take(half + 8).skip(half) {
                let (blk, jl) = (jv / k, jv % k);
                let w_b = (nv - blk * k).min(k);
                // Rows of this register's parity that the mask keeps.
                let mut rows = kept_rows & (0x55 << (reg & 1));
                while rows != 0 {
                    let i = rows.trailing_zeros() as usize;
                    rows &= rows - 1;
                    let idx = window_val_base + blk * k * v + i * w_b + jl;
                    ac.range((idx * S::BYTES) as u64, S::BYTES as u64);
                }
            }
            ac.store(counters, 1);
        }
    }
}
