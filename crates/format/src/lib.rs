//! Tensor-core sparse matrix formats: nonzero-vector partitioning, the
//! paper's memory-efficient ME-BCRS format (Section 3.5), and the
//! padding-based SR-BCRS baseline it is compared against (Table 7).
//!
//! ## Vocabulary (Section 2.2 of the paper)
//!
//! A sparse matrix is partitioned into **vectors** of `v×1` (`v` consecutive
//! rows, one column). A horizontal strip of `v` rows is a **row window**.
//! Any vector containing at least one nonzero is a **nonzero vector**; the
//! all-zero vectors of a window are simply skipped. Each group of `k`
//! consecutive nonzero vectors in a window forms a **sparse TC block**
//! (`v×k`), the unit consumed by one MMA operand.
//!
//! The vector height `v` is the algorithmic knob the whole paper turns:
//! TC-GNN/DTC-SpMM require `v = 16` (the MMA `m` dimension); FlashSparse's
//! swap-and-transpose strategy achieves `v = 8` (the MMA `n` dimension),
//! roughly halving the zero-fill.
//!
//! # Example
//!
//! Translate a CSR matrix into ME-BCRS under the paper's 8×1 FP16
//! partitioning and inspect how much zero-fill the format carries:
//!
//! ```
//! use fs_format::{vector_stats, MeBcrs, TcFormatSpec};
//! use fs_matrix::{CooMatrix, CsrMatrix};
//! use fs_precision::F16;
//!
//! let coo = CooMatrix::from_entries(16, 16, vec![(0, 0, 1.0f32), (1, 0, 2.0), (9, 3, 4.0)]);
//! let csr = CsrMatrix::from_coo(&coo);
//!
//! let stats = vector_stats(&csr, TcFormatSpec::FLASH_FP16);
//! assert_eq!(stats.nonzero_vectors, 2); // rows 0–1 share one 8x1 vector
//!
//! let me: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), TcFormatSpec::FLASH_FP16);
//! assert_eq!(me.nnz(), 3);
//! ```

// Indexed loops mirror the row/column math of the kernels they model;
// iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]

pub mod footprint;
pub mod mebcrs;
pub mod spec;
pub mod srbcrs;
pub mod stats;
pub mod validate;

pub use footprint::MemoryFootprint;
pub use mebcrs::{MeBcrs, Structure, WindowPattern};
pub use spec::TcFormatSpec;
pub use srbcrs::SrBcrs;
pub use stats::{footprint_reduction, vector_stats, VectorStats};
pub use validate::FormatViolation;
