//! Pipelined execution: the launch plan, the window driver, and
//! translate/compute overlap.
//!
//! FlashSparse's row windows are fully independent work units, so
//! nothing forces the strict translate → tune → execute sequence, nor an
//! in-order walk over the windows of one launch. Three things live here:
//!
//! * **The launch plan** ([`ExecPlan`]): the two things a caller can
//!   choose about a launch — simulator or fast path ([`ExecMode`]) and
//!   the fast path's window scheduler ([`SchedMode`]) — as data, passed
//!   to [`crate::spmm_with`] / [`crate::sddmm_with`].
//! * **The window driver** (`run_windows`): every kernel, simulated or
//!   fast, hands its windows to this one function, which runs them on a
//!   weighted work-stealing pool (`rayon::steal`): the initial partition
//!   is longest-processing-time-first on per-window vector counts
//!   (power-law graphs concentrate most nonzero vectors in a few
//!   windows), and idle workers steal half of the fullest victim's deque.
//!   Bit-identical for every worker count, which the `pipeline_props`
//!   suite checks property-style.
//! * **Translate/compute overlap** ([`spmm_overlapped`]). A cold request
//!   normally waits for the whole CSR → ME-BCRS translation before the
//!   first MMA issues. Because slab boundaries at vector-height multiples
//!   make per-slab translations concatenate exactly into the whole-matrix
//!   translation, a stager thread can translate slab *i+1*
//!   (`pipeline.stage` spans) while the compute thread executes slab *i*,
//!   double-buffered through a bounded rendezvous channel. The final
//!   format is assembled from the slabs and handed back for caching, so
//!   the translation work is not thrown away after serving the request.
//!
//! The serving engine composes the overlap with background auto-tuning
//! for its overlapped cold path (DESIGN.md §14).

use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::Scalar;
use fs_tcu::{ExecMode, KernelCounters, Precision};
use rayon::steal;

use crate::dispatch::TranslatedMatrix;
use crate::fast::{spmm_fast_into, Panel};
use crate::spmm::{kernel_shape, trace_launch};
use crate::tune::TuneChoice;
use crate::variant::TcuPrecision;

/// How the fast path distributes row windows over threads: a worker
/// count, spelled two ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// In-order windows on the calling thread — `WorkStealing` with one
    /// worker; what single-core hosts get and the reference the
    /// bit-identity properties compare against.
    Sequential,
    /// Weighted work-stealing pool with `workers` threads (values `<= 1`
    /// are the sequential loop).
    WorkStealing {
        /// Pool size; clamped to the task count at launch.
        workers: usize,
    },
}

/// Upper bound for [`SchedMode::auto`]'s pool: window tasks are
/// coarse-grained enough that more threads mostly add steal traffic.
const MAX_AUTO_WORKERS: usize = 8;

impl SchedMode {
    /// Pick a scheduler for this host: work stealing sized to the
    /// available cores, or [`SchedMode::Sequential`] when the host has a
    /// single core (where a pool can only add contention).
    pub fn auto() -> SchedMode {
        match std::thread::available_parallelism() {
            Ok(p) if p.get() > 1 => {
                SchedMode::WorkStealing { workers: p.get().min(MAX_AUTO_WORKERS) }
            }
            _ => SchedMode::Sequential,
        }
    }

    /// The worker count this mode runs with (1 for sequential).
    pub fn workers(self) -> usize {
        match self {
            SchedMode::Sequential => 1,
            SchedMode::WorkStealing { workers } => workers.max(1),
        }
    }
}

/// How one kernel launch executes: which engine runs the row windows
/// and, on the fast path, how they are spread over threads. The MMA
/// shape is not a field — it follows from the operand's format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    /// Per-lane simulator or fused fast path (bit-identical results).
    pub mode: ExecMode,
    /// Window scheduler of the fast path. The simulator ignores it and
    /// runs its windows in order on the calling thread, which is what
    /// keeps seeded fault-injection replay byte-stable.
    pub sched: SchedMode,
}

impl ExecPlan {
    /// What every launch without an explicit plan runs:
    /// [`ExecMode::auto`] and [`SchedMode::auto`].
    pub fn auto() -> ExecPlan {
        ExecPlan { mode: ExecMode::auto(), sched: SchedMode::auto() }
    }
}

/// Run every row window of `a` for one launch and sum their counters.
///
/// `out` is cut into consecutive slices of `window_len(w)` elements;
/// `kernel(w, slice)` runs once per window under a `window_batch` span,
/// scheduled by the window's vector count. Windows own disjoint output
/// and every counter is a commutative sum, so the result is the same
/// bits for every `workers`; with `workers <= 1` the windows run in order
/// on the calling thread (`rayon::steal::run`'s sequential
/// short-circuit), which is how the simulated kernels call this.
pub(crate) fn run_windows<S: Scalar, T: Send>(
    a: &MeBcrs<S>,
    out: &mut [T],
    window_len: impl Fn(usize) -> usize,
    workers: usize,
    kernel: impl Fn(usize, &mut [T]) -> KernelCounters + Sync,
) -> KernelCounters {
    let mut rest = out;
    let mut tasks = Vec::with_capacity(a.num_windows());
    for w in 0..a.num_windows() {
        let (head, tail) = rest.split_at_mut(window_len(w));
        // +1: an empty window still costs a dispatch.
        tasks.push((a.vectors_in_window(w) as u64 + 1, (w, head)));
        rest = tail;
    }
    let (parts, stats) = steal::run(workers, tasks, |(w, slice)| {
        let _span = fs_trace::span(fs_trace::Site::WindowBatch);
        kernel(w, slice)
    });
    if stats.steals > 0 {
        fs_trace::add(fs_trace::TraceCounter::Steals, stats.steals);
        for d in &stats.steal_durations {
            fs_trace::record_duration(fs_trace::Site::PipelineSteal, *d);
        }
    }
    parts.into_iter().sum()
}

/// Row windows per translation slab. Large enough that per-slab
/// translation overhead (a CSR slice copy plus window assembly)
/// amortizes, small enough that the first MMAs issue long before the
/// tail of the matrix is translated.
const SLAB_WINDOWS: usize = 32;

/// SpMM straight from CSR with translate/compute overlap: translate
/// vector-aligned row slabs on a stager thread while executing already
/// translated slabs on the calling thread, then assemble and return the
/// full translated format so the caller can cache it.
///
/// The output is bit-identical to `TranslatedMatrix::translate` followed
/// by `spmm_f32`, and the assembled format equals the whole-matrix
/// translation: windows are processed independently in both. The traffic
/// counters may differ by a few sectors from the monolithic launch
/// because analytic addresses are array-local and slab arrays start at
/// different sector offsets; MMA and FLOP counts are exact.
///
/// The overlap exists only on the fast path. When [`ExecMode::auto`]
/// selects the simulator (sanitize or chaos active) this is exactly
/// that monolithic sequence — translate whole, then the simulated
/// `spmm_f32` — so the sanitizer and every chaos site see the launch.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn spmm_overlapped(
    csr: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    choice: &TuneChoice,
    sched: SchedMode,
) -> (DenseMatrix<f32>, KernelCounters, TranslatedMatrix) {
    assert_eq!(csr.cols(), b.rows(), "inner dimensions must agree");
    if !ExecMode::auto().is_fast() {
        let format = TranslatedMatrix::translate(csr, choice);
        let (out, counters) = format.spmm_f32(b, choice.mapping);
        return (out, counters, format);
    }
    let _span = fs_trace::span(fs_trace::Site::PipelineOverlap);
    fs_trace::add(fs_trace::TraceCounter::Overlaps, 1);
    let (out, counters, format) = match (choice.precision, choice.block_k) {
        (Precision::Fp16, 8) => overlapped_impl(csr, b, choice, sched, TranslatedMatrix::Fp16K8),
        (Precision::Fp16, 16) => overlapped_impl(csr, b, choice, sched, TranslatedMatrix::Fp16K16),
        (Precision::Tf32, 4) => overlapped_impl(csr, b, choice, sched, TranslatedMatrix::Tf32K4),
        other => unreachable!("tuner never selects {other:?}"),
    };
    trace_launch(ExecMode::Fast, &counters);
    (out, counters, format)
}

/// The monomorphic overlap pipeline: stager thread translating slabs,
/// calling thread executing them against one shared panel of `b`
/// (staged while the first slab translates), format assembled at the end
/// and wrapped in its `variant`.
fn overlapped_impl<S: TcuPrecision>(
    csr: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    choice: &TuneChoice,
    sched: SchedMode,
    variant: fn(MeBcrs<S>) -> TranslatedMatrix,
) -> (DenseMatrix<f32>, KernelCounters, TranslatedMatrix) {
    let spec = choice.spec();
    let shape = kernel_shape::<S>(spec);
    let rows = csr.rows();
    let n = b.cols();
    let slab_rows = SLAB_WINDOWS * spec.vector_len;
    let mut out = DenseMatrix::<f32>::zeros(rows, n);

    let (slabs, counters) = std::thread::scope(|s| {
        // Rendezvous + one buffered slab = classic double buffering: the
        // stager is at most one slab ahead of the compute thread and
        // blocks (instead of ballooning memory) if compute falls behind.
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, MeBcrs<S>)>(1);
        s.spawn(move || {
            let mut lo = 0;
            while lo < rows {
                let hi = (lo + slab_rows).min(rows);
                let _span = fs_trace::span(fs_trace::Site::PipelineStage);
                let slab = MeBcrs::from_csr_rows_cast(csr, lo..hi, spec);
                if tx.send((lo, slab)).is_err() {
                    return; // compute side is gone (it panicked); stop staging
                }
                lo = hi;
            }
        });

        let panel = Panel::stage::<S, f32>(b, sched);
        let mut slabs: Vec<MeBcrs<S>> = Vec::with_capacity(rows.div_ceil(slab_rows.max(1)));
        let mut counters = KernelCounters::default();
        for (lo, slab) in rx {
            let hi = lo + slab.rows();
            counters += spmm_fast_into(
                &slab,
                &panel,
                choice.mapping,
                shape,
                &mut out.as_mut_slice()[lo * n..hi * n],
                sched,
            );
            slabs.push(slab);
        }
        (slabs, counters)
    });

    (out, counters, variant(assemble(spec, csr.rows(), csr.cols(), &slabs)))
}

/// Concatenate per-slab translations into the whole-matrix ME-BCRS.
/// Exact because slab boundaries sit at vector-height multiples: every
/// window is wholly inside one slab, window pointers rebase by offset,
/// and the block-major values of consecutive windows are adjacent.
fn assemble<S: TcuPrecision>(
    spec: TcFormatSpec,
    rows: usize,
    cols: usize,
    slabs: &[MeBcrs<S>],
) -> MeBcrs<S> {
    let mut window_ptr = vec![0usize];
    let mut col_indices: Vec<u32> = Vec::new();
    let mut values: Vec<S> = Vec::new();
    let mut nnz = 0;
    for slab in slabs {
        let base = col_indices.len();
        window_ptr.extend(slab.window_ptr()[1..].iter().map(|&p| p + base));
        col_indices.extend_from_slice(slab.col_indices());
        values.extend_from_slice(slab.values());
        nnz += slab.nnz();
    }
    let mut full = MeBcrs::from_raw_parts(spec, rows, cols, window_ptr, col_indices, values, nnz);
    let ok = full.mark_validated();
    debug_assert!(ok, "slab concatenation must preserve every format invariant");
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_map::ThreadMapping;
    use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
    use fs_matrix::CsrMatrix;
    use fs_precision::F16;
    use fs_tcu::GpuSpec;

    fn bits(m: &DenseMatrix<f32>) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn all_choices() -> Vec<TuneChoice> {
        [(Precision::Fp16, 8usize), (Precision::Fp16, 16), (Precision::Tf32, 4)]
            .into_iter()
            .map(|(precision, block_k)| TuneChoice {
                precision,
                block_k,
                mapping: ThreadMapping::MemoryEfficient,
                sampled_time: 0.0,
            })
            .collect()
    }

    #[test]
    fn auto_mode_workers_are_bounded() {
        assert!(SchedMode::auto().workers() <= MAX_AUTO_WORKERS);
        assert_eq!(SchedMode::Sequential.workers(), 1);
        assert_eq!(SchedMode::WorkStealing { workers: 0 }.workers(), 1);
    }

    #[test]
    fn overlapped_matches_monolithic_translate_and_execute() {
        // Big enough for several slabs (SLAB_WINDOWS * 8 = 256 rows per
        // slab), with a ragged final window.
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(700, 600, 9000, 5));
        let b = DenseMatrix::<f32>::from_fn(600, 24, |r, c| ((r * 3 + c) % 13) as f32 * 0.25);
        for choice in all_choices() {
            let mono = TranslatedMatrix::translate(&csr, &choice);
            let (want, want_k) = mono.spmm_f32(&b, choice.mapping);
            let (got, got_k, format) = spmm_overlapped(&csr, &b, &choice, SchedMode::Sequential);
            assert_eq!(bits(&got), bits(&want), "{}", choice.variant_name());
            assert_eq!(got_k.mma_count, want_k.mma_count);
            assert_eq!(got_k.tcu_flops, want_k.tcu_flops);
            // The assembled format must be byte-equal to the monolithic
            // translation so caching it is indistinguishable.
            let (cached, _) = format.spmm_f32(&b, choice.mapping);
            assert_eq!(bits(&cached), bits(&want), "{}", choice.variant_name());
            assert!(format.is_validated());
            assert_eq!((format.rows(), format.cols(), format.nnz()), (700, 600, csr.nnz()));
        }
    }

    #[test]
    fn assembled_format_equals_from_csr() {
        let csr = CsrMatrix::from_coo(&rmat::<f32>(9, 6, RmatConfig::GRAPH500, true, 3));
        let b = DenseMatrix::<f32>::zeros(csr.cols(), 8);
        let choice = TuneChoice {
            precision: Precision::Fp16,
            block_k: 8,
            mapping: ThreadMapping::MemoryEfficient,
            sampled_time: 0.0,
        };
        let (_, _, format) = spmm_overlapped(&csr, &b, &choice, SchedMode::Sequential);
        let mono = MeBcrs::from_csr(&csr.cast::<F16>(), TcFormatSpec::FLASH_FP16);
        match format {
            TranslatedMatrix::Fp16K8(me) => assert_eq!(me, mono),
            other => unreachable!("choice selects k8: {other:?}"),
        }
    }

    #[test]
    fn overlapped_handles_degenerate_shapes() {
        // Fewer rows than one slab, and an empty matrix.
        let small = CsrMatrix::from_coo(&random_uniform::<f32>(40, 40, 100, 1));
        let b = DenseMatrix::<f32>::from_fn(40, 8, |r, c| (r + c) as f32 * 0.5);
        let choice = crate::auto_tune(&small, 8, GpuSpec::RTX4090);
        let mono = TranslatedMatrix::translate(&small, &choice);
        let (want, _) = mono.spmm_f32(&b, choice.mapping);
        let (got, _, _) = spmm_overlapped(&small, &b, &choice, SchedMode::Sequential);
        assert_eq!(bits(&got), bits(&want));

        let empty = CsrMatrix::<f32>::empty(0, 40);
        let (out, k, format) = spmm_overlapped(&empty, &b, &choice, SchedMode::Sequential);
        assert_eq!(out.rows(), 0);
        assert_eq!(k.mma_count, 0);
        assert_eq!(format.nnz(), 0);
    }

    #[test]
    fn auto_plan_matches_spmm() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(200, 160, 2500, 7));
        let b16 = DenseMatrix::<F16>::from_fn(160, 20, |r, c| ((r + c) % 9) as f32 * 0.125);
        let me = MeBcrs::from_csr(&csr.cast::<F16>(), TcFormatSpec::FLASH_FP16);
        let mapping = ThreadMapping::MemoryEfficient;
        let (want, want_k) = crate::spmm(&me, &b16, mapping);
        let auto = ExecPlan::auto();
        for sched in [auto.sched, SchedMode::Sequential, SchedMode::WorkStealing { workers: 3 }] {
            let (got, got_k) = crate::spmm_with(&me, &b16, mapping, ExecPlan { sched, ..auto });
            assert_eq!(got.max_abs_diff(&want), 0.0, "{sched:?}");
            assert_eq!(got_k, want_k, "{sched:?}");
        }
    }
}
