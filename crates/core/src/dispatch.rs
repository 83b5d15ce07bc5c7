//! Runtime variant dispatch: one translated matrix, whichever kernel
//! configuration the tuner picked.
//!
//! The typed API ([`crate::FlashSparseMatrix`]) fixes the precision at
//! compile time, which is right for a single experiment but wrong for a
//! serving layer that holds many matrices tuned to different variants.
//! [`TranslatedMatrix`] erases the precision: it pairs the ME-BCRS storage
//! with the [`TuneChoice`] that selected it and exposes an f32-in/f32-out
//! SpMM, so a cache can hold heterogeneous entries and a request path can
//! stay monomorphic.

use fs_format::{MeBcrs, MemoryFootprint};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::{KernelCounters, Precision};

use crate::spmm::spmm_f32;
use crate::tune::TuneChoice;

/// A sparse matrix translated into the ME-BCRS layout of one tuned kernel
/// variant, ready for repeated f32-interface SpMM.
#[derive(Clone, Debug)]
pub enum TranslatedMatrix {
    /// FP16 storage, `m16n8k8` MMA (8-wide TC blocks).
    Fp16K8(MeBcrs<F16>),
    /// FP16 storage, `m16n8k16` MMA (16-wide TC blocks).
    Fp16K16(MeBcrs<F16>),
    /// TF32 storage, `m16n8k4` MMA (4-wide TC blocks).
    Tf32K4(MeBcrs<Tf32>),
}

impl TranslatedMatrix {
    /// Translate `csr` into the layout `choice` requires. Each value is
    /// cast to the variant's storage precision as it is scattered into the
    /// layout ([`MeBcrs::from_csr_cast`]) — no typed copy of the CSR is
    /// made — exactly as the one-off preprocessing would on hardware.
    pub fn translate(csr: &CsrMatrix<f32>, choice: &TuneChoice) -> TranslatedMatrix {
        let _span = fs_trace::span(fs_trace::Site::Translate);
        let spec = choice.spec();
        match (choice.precision, choice.block_k) {
            (Precision::Fp16, 8) => TranslatedMatrix::Fp16K8(MeBcrs::from_csr_cast(csr, spec)),
            (Precision::Fp16, 16) => TranslatedMatrix::Fp16K16(MeBcrs::from_csr_cast(csr, spec)),
            (Precision::Tf32, 4) => TranslatedMatrix::Tf32K4(MeBcrs::from_csr_cast(csr, spec)),
            other => unreachable!("tuner never selects {other:?}"),
        }
    }

    /// SpMM against an f32 dense operand with the tuned kernel
    /// ([`spmm_f32`]): the operand is rounded to the variant's storage
    /// precision once on its way into the kernel and the f32 accumulators
    /// are rounded once on their way out — the bits the typed kernel
    /// would store, widened. Deterministic: the same variant and inputs
    /// produce bit-identical output, which is what lets the serving cache
    /// promise hit/miss equivalence.
    pub fn spmm_f32(
        &self,
        b: &DenseMatrix<f32>,
        mapping: crate::ThreadMapping,
    ) -> (DenseMatrix<f32>, KernelCounters) {
        match self {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => {
                spmm_f32(me, b, mapping)
            }
            TranslatedMatrix::Tf32K4(me) => spmm_f32(me, b, mapping),
        }
    }

    /// Rows of the sparse matrix.
    pub fn rows(&self) -> usize {
        match self {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.rows(),
            TranslatedMatrix::Tf32K4(me) => me.rows(),
        }
    }

    /// Columns of the sparse matrix.
    pub fn cols(&self) -> usize {
        match self {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.cols(),
            TranslatedMatrix::Tf32K4(me) => me.cols(),
        }
    }

    /// Nonzeros of the source matrix.
    pub fn nnz(&self) -> usize {
        match self {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.nnz(),
            TranslatedMatrix::Tf32K4(me) => me.nnz(),
        }
    }

    /// Whether the underlying ME-BCRS carries the structural-validity
    /// witness (set by [`translate`](Self::translate), which builds via
    /// `from_csr`). Witnessed matrices skip the per-launch validation
    /// walk on the fast path — what lets a serving cache validate once
    /// at translation and never again per request.
    pub fn is_validated(&self) -> bool {
        match self {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.is_validated(),
            TranslatedMatrix::Tf32K4(me) => me.is_validated(),
        }
    }
}

impl MemoryFootprint for TranslatedMatrix {
    /// Resident bytes of the translated arrays — the fs-format Table 7
    /// accounting, which the serving cache budgets against.
    fn footprint_bytes(&self) -> usize {
        match self {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.footprint_bytes(),
            TranslatedMatrix::Tf32K4(me) => me.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadMapping;
    use fs_matrix::gen::random_uniform;
    use fs_tcu::GpuSpec;

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
    fn every_variant_matches_the_reference() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(64, 64, 500, 8));
        let b = DenseMatrix::<f32>::from_fn(64, 32, |r, c| ((r + 2 * c) % 5) as f32 * 0.25);
        let reference = csr.spmm_reference(&b);
        for choice in all_choices() {
            let t = TranslatedMatrix::translate(&csr, &choice);
            assert_eq!((t.rows(), t.cols(), t.nnz()), (64, 64, csr.nnz()));
            let (out, k) = t.spmm_f32(&b, choice.mapping);
            assert!(k.mma_count > 0, "{}", choice.variant_name());
            // FP16 rounds the operands hard; TF32 keeps ~10 mantissa bits.
            let tol = if choice.precision == Precision::Fp16 { 0.6 } else { 0.05 };
            assert!(
                out.max_abs_diff(&reference) < tol,
                "{} diff {}",
                choice.variant_name(),
                out.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn dispatch_is_bit_deterministic() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(96, 80, 700, 1));
        let b = DenseMatrix::<f32>::from_fn(80, 16, |r, c| ((r * c) % 7) as f32 * 0.5);
        for choice in all_choices() {
            let t1 = TranslatedMatrix::translate(&csr, &choice);
            let t2 = TranslatedMatrix::translate(&csr, &choice);
            let (a, _) = t1.spmm_f32(&b, choice.mapping);
            let (c, _) = t2.spmm_f32(&b, choice.mapping);
            let bits = |m: &DenseMatrix<f32>| -> Vec<u32> {
                m.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&c), "{}", choice.variant_name());
        }
    }

    #[test]
    fn footprint_matches_the_underlying_format() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(64, 64, 300, 2));
        let choice = crate::auto_tune(&csr, 32, GpuSpec::RTX4090);
        let t = TranslatedMatrix::translate(&csr, &choice);
        let expected = match &t {
            TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.footprint_bytes(),
            TranslatedMatrix::Tf32K4(me) => me.footprint_bytes(),
        };
        assert_eq!(MemoryFootprint::footprint_bytes(&t), expected);
    }
}
