//! Sampling-based kernel auto-tuning.
//!
//! The paper evaluates "the optimal version" of each tunable system
//! (Section 4, Table 3 discussion). FlashSparse's own configuration space
//! is {precision (FP16 / TF32), block width (k=8 / k=16 for FP16), thread
//! mapping} — the right choice depends on the matrix: FP16 halves value
//! bytes but TF32 keeps f32 range; k=16 halves MMA instructions but pads
//! ragged blocks harder.
//!
//! [`auto_tune`] scores every candidate on a bounded *sample* of the
//! matrix (the first rows, enough windows to be representative) by its
//! simulated time on the target GPU and returns the winner — the usual
//! inspector/executor pattern. Scoring a candidate means feeding the
//! [`KernelCounters`] of its SpMM on the sample to the cost model, and
//! those counters are a function of the sample's sparsity pattern, the
//! dense width, the thread mapping and the element width — never of a
//! value. So nothing is run: one [`WindowPattern`] pass over the sample's
//! rows (all three layouts use 8×1 vectors and differ only in block width
//! and element bytes) is viewed as each layout in turn and handed to
//! [`spmm_counters`], the same per-window counter function a launch
//! calls. The result is therefore exactly what launching every candidate
//! would have produced, `sampled_time` to the last bit.
//!
//! Under a chaos or sanitize scope ([`ExecMode::auto`] is not `Fast`)
//! kernels run on the simulator so that faults land and violations are
//! attributed, and the tuner does the same: it translates the sample and
//! launches the six candidates (`tune_by_launching`), which is also the
//! oracle the closed form is tested against.

use fs_format::{MeBcrs, TcFormatSpec, WindowPattern};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::cost::{ComputeClass, CostModel};
use fs_tcu::{ExecMode, GpuSpec, KernelCounters, Precision};

use crate::fast::spmm_counters;
use crate::spmm::{kernel_shape, spmm, spmm_fp16_k16};
use crate::thread_map::ThreadMapping;
use crate::variant::TcuPrecision;

/// A tuned kernel configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneChoice {
    /// Selected operand precision.
    pub precision: Precision,
    /// Selected block width (`k` of the MMA shape).
    pub block_k: usize,
    /// Selected thread mapping.
    pub mapping: ThreadMapping,
    /// Estimated SpMM time on the sample, seconds (for diagnostics).
    pub sampled_time: f64,
}

impl TuneChoice {
    /// The documented fallback for degenerate inputs ([`auto_tune`] returns
    /// it for empty matrices and `n = 0`): FP16 `k = 8` with the
    /// memory-efficient mapping — the paper's headline configuration, valid
    /// for every matrix, with a zero sampled time marking "not probed".
    pub const FALLBACK: TuneChoice = TuneChoice {
        precision: Precision::Fp16,
        block_k: 8,
        mapping: ThreadMapping::MemoryEfficient,
        sampled_time: 0.0,
    };

    /// Size of the [`Self::to_bytes`] wire encoding.
    pub const WIRE_BYTES: usize = 16;

    /// The format spec the winning kernel needs.
    pub fn spec(&self) -> TcFormatSpec {
        match (self.precision, self.block_k) {
            (Precision::Fp16, 8) => TcFormatSpec::FLASH_FP16,
            (Precision::Fp16, 16) => TcFormatSpec::FLASH_FP16_K16,
            (Precision::Tf32, 4) => TcFormatSpec::FLASH_TF32,
            other => unreachable!("tuner never selects {other:?}"),
        }
    }

    /// A short stable name for the selected kernel variant (cache keys,
    /// metrics, logs): e.g. `fp16-k8-me`, `tf32-k4-direct`.
    pub fn variant_name(&self) -> String {
        let map = match self.mapping {
            ThreadMapping::MemoryEfficient => "me",
            ThreadMapping::Direct => "direct",
        };
        format!("{}-k{}-{}", self.precision.name(), self.block_k, map)
    }

    /// Fixed-size little-endian wire encoding, so a tuned choice can be
    /// cached next to its translated matrix or shipped over the serving
    /// protocol: `[precision, block_k, mapping, 0 ×5, sampled_time f64]`.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[0] = match self.precision {
            Precision::Fp16 => 0,
            Precision::Tf32 => 1,
        };
        out[1] = self.block_k.min(255) as u8;
        out[2] = match self.mapping {
            ThreadMapping::Direct => 0,
            ThreadMapping::MemoryEfficient => 1,
        };
        out[8..16].copy_from_slice(&self.sampled_time.to_le_bytes());
        out
    }

    /// Decode [`Self::to_bytes`]. Returns `None` for any byte pattern that
    /// does not name a configuration the tuner can produce.
    pub fn from_bytes(bytes: &[u8; Self::WIRE_BYTES]) -> Option<TuneChoice> {
        let precision = match bytes[0] {
            0 => Precision::Fp16,
            1 => Precision::Tf32,
            _ => return None,
        };
        let block_k = bytes[1] as usize;
        match (precision, block_k) {
            (Precision::Fp16, 8 | 16) | (Precision::Tf32, 4) => {}
            _ => return None,
        }
        let mapping = match bytes[2] {
            0 => ThreadMapping::Direct,
            1 => ThreadMapping::MemoryEfficient,
            _ => return None,
        };
        let mut t = [0u8; 8];
        t.copy_from_slice(&bytes[8..16]);
        let sampled_time = f64::from_le_bytes(t);
        if !sampled_time.is_finite() || sampled_time < 0.0 {
            return None;
        }
        Some(TuneChoice { precision, block_k, mapping, sampled_time })
    }
}

/// Rows sampled for probing (a few hundred windows).
const SAMPLE_ROWS: usize = 2048;

/// Widest dense operand the sample is probed at.
const SAMPLE_WIDTH: usize = 64;

/// Score every FlashSparse configuration on a sample of `csr` and return
/// the one with the lowest simulated SpMM time for dense width `n` on
/// `gpu`.
///
/// The cost is one pattern pass over the sample's rows plus six counter
/// evaluations (module doc) — the order of one translation of the sample,
/// where launching the candidates cost about ten.
pub fn auto_tune(csr: &CsrMatrix<f32>, n: usize, gpu: GpuSpec) -> TuneChoice {
    let _span = fs_trace::span(fs_trace::Site::Tune);
    // Degenerate inputs — nothing to sample, or a zero-width dense operand —
    // would make every candidate score an identical 0.0 and the "winner"
    // an accident of probe order. Return the documented fallback instead.
    if csr.rows() == 0 || csr.cols() == 0 || csr.nnz() == 0 || n == 0 {
        return TuneChoice::FALLBACK;
    }
    if !ExecMode::auto().is_fast() {
        return tune_by_launching(csr, n, gpu);
    }
    let rows = SAMPLE_ROWS.min(csr.rows());
    let pattern = WindowPattern::from_csr_rows(csr, 0..rows, TcFormatSpec::FLASH_FP16.vector_len);
    fn probe<S: TcuPrecision>(
        pattern: &WindowPattern,
        spec: TcFormatSpec,
        n: usize,
        mapping: ThreadMapping,
    ) -> KernelCounters {
        let structure = pattern.structure(spec.block_k, S::BYTES);
        spmm_counters(structure, n, mapping, kernel_shape::<S>(spec))
    }
    let n = n.min(SAMPLE_WIDTH);
    first_minimum(gpu, |precision, spec, mapping| match precision {
        Precision::Fp16 => probe::<F16>(&pattern, spec, n, mapping),
        Precision::Tf32 => probe::<Tf32>(&pattern, spec, n, mapping),
    })
}

/// The six candidates in probe order, each scored by the cost model on
/// the counters `probe` reports for it; the first strict minimum wins.
fn first_minimum(
    gpu: GpuSpec,
    mut probe: impl FnMut(Precision, TcFormatSpec, ThreadMapping) -> KernelCounters,
) -> TuneChoice {
    let model = CostModel::new(gpu);
    let mut best: Option<TuneChoice> = None;
    for mapping in [ThreadMapping::MemoryEfficient, ThreadMapping::Direct] {
        for (precision, spec) in [
            (Precision::Fp16, TcFormatSpec::FLASH_FP16),
            (Precision::Fp16, TcFormatSpec::FLASH_FP16_K16),
            (Precision::Tf32, TcFormatSpec::FLASH_TF32),
        ] {
            let counters = probe(precision, spec, mapping);
            let sampled_time = model.kernel_time(&counters, ComputeClass::tcu(precision));
            if !best.is_some_and(|b| b.sampled_time <= sampled_time) {
                let block_k = spec.block_k;
                best = Some(TuneChoice { precision, block_k, mapping, sampled_time });
            }
        }
    }
    best.expect("at least one configuration probed") // lint: allow-panic - probe list is non-empty by construction
}

/// [`auto_tune`] by running the candidates: copy the sample, translate it
/// once per layout and launch all six SpMMs against a zero operand for
/// their counters. What the tuner does when kernels route to the
/// simulator (the launches are where chaos faults are drawn and sanitizer
/// violations recorded), and the oracle for the closed form
/// (`tests/tune_closed_form.rs`) — public for that test only; callers
/// want [`auto_tune`], which alone decides when this runs.
#[doc(hidden)]
pub fn tune_by_launching(csr: &CsrMatrix<f32>, n: usize, gpu: GpuSpec) -> TuneChoice {
    let sample = csr.head_rows(SAMPLE_ROWS.min(csr.rows()));
    let b16 = DenseMatrix::<F16>::zeros(sample.cols(), n.min(SAMPLE_WIDTH));
    let b32 = DenseMatrix::<Tf32>::zeros(sample.cols(), n.min(SAMPLE_WIDTH));

    // One translation per layout; both mappings probe the same format
    // (the mapping only changes how the kernel addresses it).
    let sample16 = sample.cast::<F16>();
    let me_k8 = MeBcrs::from_csr(&sample16, TcFormatSpec::FLASH_FP16);
    let me_k16 = MeBcrs::from_csr(&sample16, TcFormatSpec::FLASH_FP16_K16);
    let me_tf32 = MeBcrs::from_csr(&sample.cast::<Tf32>(), TcFormatSpec::FLASH_TF32);

    first_minimum(gpu, |precision, spec, mapping| match (precision, spec.block_k) {
        (Precision::Fp16, 16) => spmm_fp16_k16(&me_k16, &b16, mapping).1,
        (Precision::Fp16, _) => spmm(&me_k8, &b16, mapping).1,
        (Precision::Tf32, _) => spmm(&me_tf32, &b32, mapping).1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::{random_uniform, rmat, RmatConfig};

    #[test]
    fn tuner_returns_a_valid_config() {
        let csr = CsrMatrix::from_coo(&rmat::<f32>(8, 4, RmatConfig::GRAPH500, true, 3));
        let choice = auto_tune(&csr, 128, GpuSpec::RTX4090);
        assert!(choice.sampled_time > 0.0);
        // The spec accessor must not panic for whatever was chosen.
        let spec = choice.spec();
        assert_eq!(spec.vector_len, 8);
    }

    #[test]
    fn tuner_prefers_coalesced_mapping_for_fp16() {
        // On FP16 the coalesced mapping strictly dominates; the tuner must
        // never pick Direct with Fp16.
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(512, 512, 6000, 5));
        let choice = auto_tune(&csr, 128, GpuSpec::H100_PCIE);
        if choice.precision == Precision::Fp16 {
            assert_eq!(choice.mapping, ThreadMapping::MemoryEfficient);
        }
    }

    #[test]
    fn tuner_falls_back_on_degenerate_inputs() {
        // Empty matrix (no rows / no nonzeros) and n = 0 must not panic and
        // must return the documented fallback, not an arbitrary probe.
        let empty = CsrMatrix::<f32>::empty(0, 0);
        assert_eq!(auto_tune(&empty, 128, GpuSpec::RTX4090), TuneChoice::FALLBACK);

        let no_nnz = CsrMatrix::<f32>::empty(64, 64);
        assert_eq!(auto_tune(&no_nnz, 128, GpuSpec::RTX4090), TuneChoice::FALLBACK);

        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(64, 64, 200, 3));
        assert_eq!(auto_tune(&csr, 0, GpuSpec::RTX4090), TuneChoice::FALLBACK);
        // The fallback names a real kernel configuration.
        assert_eq!(TuneChoice::FALLBACK.spec(), TcFormatSpec::FLASH_FP16);
    }

    #[test]
    fn wire_roundtrip() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(256, 256, 2000, 4));
        let choice = auto_tune(&csr, 64, GpuSpec::RTX4090);
        let bytes = choice.to_bytes();
        assert_eq!(TuneChoice::from_bytes(&bytes), Some(choice));
        // Unknown precision tag, bad block width, bad mapping, bad time.
        let mut bad = bytes;
        bad[0] = 9;
        assert_eq!(TuneChoice::from_bytes(&bad), None);
        let mut bad = bytes;
        bad[1] = 3;
        assert_eq!(TuneChoice::from_bytes(&bad), None);
        let mut bad = bytes;
        bad[2] = 7;
        assert_eq!(TuneChoice::from_bytes(&bad), None);
        let mut bad = bytes;
        bad[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(TuneChoice::from_bytes(&bad), None);
    }

    #[test]
    fn variant_names_are_distinct() {
        let mut names = std::collections::HashSet::new();
        for (precision, block_k) in
            [(Precision::Fp16, 8), (Precision::Fp16, 16), (Precision::Tf32, 4)]
        {
            for mapping in [ThreadMapping::Direct, ThreadMapping::MemoryEfficient] {
                let c = TuneChoice { precision, block_k, mapping, sampled_time: 0.0 };
                assert!(names.insert(c.variant_name()), "duplicate {}", c.variant_name());
            }
        }
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn tuner_is_deterministic() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(256, 256, 2000, 9));
        let a = auto_tune(&csr, 64, GpuSpec::RTX4090);
        let b = auto_tune(&csr, 64, GpuSpec::RTX4090);
        assert_eq!(a, b);
    }
}
