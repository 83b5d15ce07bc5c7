//! **FlashSparse**: sparse matrix multiplications (SpMM, SDDMM) on
//! (simulated) tensor cores with the minimum 8×1 nonzero-vector
//! granularity, via the swap-and-transpose MMA computation strategy.
//!
//! This crate implements the paper's contribution (PPoPP'25):
//!
//! * **Swap-and-transpose MMA** (Section 3.2): `A×B = (Bᵀ×Aᵀ)ᵀ` lets the
//!   sparse block be the MMA *right* operand, shrinking the nonzero-vector
//!   height from the MMA's `m = 16` to its `n = 8` and roughly halving
//!   zero-fill, computation, and data access.
//! * **SpMM** (Section 3.3, [`spmm()`]): sparse `A` (ME-BCRS) × dense `B`,
//!   FP16 (`m16n8k8`) and TF32 (`m16n8k4`), with both thread mappings.
//! * **Memory-efficient thread mapping** (Section 3.3 / Figure 7,
//!   [`thread_map`]): the column-shuffled 2×2-block mapping that halves
//!   32-byte memory transactions versus the direct PTX fragment mapping.
//! * **SDDMM** (Section 3.4, [`sddmm()`]): sampled dense-dense multiply with
//!   the output-splitting writeback of Algorithm 1, producing the output
//!   directly in the ME-BCRS layout the subsequent SpMM consumes.
//! * **Dual-mode execution** ([`ExecMode`]): every kernel runs either on
//!   the full per-lane simulator (`Simulate`) or on a fused fast path
//!   (`Fast`) that produces bit-identical outputs and counters without
//!   fragment materialization or transaction replay. The mode is selected
//!   automatically — `Fast` whenever sanitize and chaos are both off —
//!   and can be pinned, together with the window scheduler, by passing
//!   an [`ExecPlan`] to [`spmm_with`] / [`sddmm_with`] — one launch
//!   function per op; the MMA shape is read off the operand's layout.
//! * **Pipelined execution** ([`pipeline`]): one window driver under
//!   every kernel, work-stealing on the fast path ([`SchedMode`],
//!   bit-identical to sequential execution), and a translate/compute
//!   overlap ([`spmm_overlapped`]) that runs SpMM straight from CSR while
//!   the ME-BCRS translation streams in slab by slab.
//!
//! Kernels execute on the [`fs_tcu`] warp-level tensor-core simulator:
//! results are numerically faithful to the hardware datapath (FP16/TF32
//! operand rounding, f32 accumulation) and every kernel returns the
//! [`fs_tcu::KernelCounters`] — MMA invocations, 32-byte memory
//! transactions, bytes moved — that drive the paper's figures.
//!
//! ```
//! use flashsparse::{FlashSparseMatrix, ThreadMapping};
//! use fs_matrix::{CsrMatrix, DenseMatrix, gen};
//! use fs_precision::F16;
//!
//! let coo = gen::random_uniform::<F16>(64, 64, 400, 7);
//! let a = CsrMatrix::from_coo(&coo);
//! let fs = FlashSparseMatrix::from_csr(&a);
//! let b = DenseMatrix::<F16>::from_fn(64, 32, |r, c| ((r + c) % 5) as f32 * 0.25);
//! let (c, counters) = fs.spmm(&b, ThreadMapping::MemoryEfficient);
//! assert_eq!(c.rows(), 64);
//! assert!(counters.mma_count > 0);
//! ```

pub mod api;
pub mod dispatch;
mod fast;
pub mod pipeline;
pub mod resilient;
mod sanitize_hooks;
pub mod sddmm;
pub mod spmm;
pub mod thread_map;
pub mod tune;
pub mod variant;

pub use api::FlashSparseMatrix;
pub use dispatch::TranslatedMatrix;
pub use fast::spmm_counters;
pub use fs_tcu::ExecMode;
pub use pipeline::{spmm_overlapped, ExecPlan, SchedMode};
pub use resilient::{
    outputs_match, spmm_resilient, verify_sampled_rows, FallbackLevel, ResilientReport,
    VerifyPolicy, DEFAULT_TOLERANCE,
};
pub use sddmm::{sddmm, sddmm_with};
pub use spmm::{spmm, spmm_f32, spmm_fp16_k16, spmm_with};
pub use thread_map::ThreadMapping;
pub use tune::{auto_tune, TuneChoice};
pub use variant::TcuPrecision;
