//! The [`Scalar`] abstraction over storage precisions.
//!
//! Sparse kernels in this workspace are generic over the precision their
//! operands are *stored and loaded* in; accumulation is always `f32`, which is
//! what both the tensor-core MMA datapath and the CUDA-core baselines do.

use crate::{Tf32, F16};

/// A storage scalar: something a matrix can hold and a (simulated) memory
/// system can move, convertible losslessly-enough to `f32` for arithmetic.
pub trait Scalar: Copy + Default + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Human-readable precision name, e.g. `"fp16"`.
    const NAME: &'static str;
    /// Bytes occupied in memory. Drives the memory-transaction model.
    const BYTES: usize;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Round an `f32` into this precision.
    fn from_f32(x: f32) -> Self;
    /// Widen to `f32` (exact for all three implementations).
    fn to_f32(self) -> f32;

    /// Fused load-convert as performed by the tensor core: the value as the
    /// MMA datapath sees it. Identical to `to_f32` for our types.
    #[inline]
    fn mma_operand(self) -> f32 {
        self.to_f32()
    }

    /// `true` if the stored value is exactly (signed) zero.
    #[inline]
    fn is_zero(self) -> bool {
        self.to_f32() == 0.0
    }
}

impl Scalar for f32 {
    const NAME: &'static str = "fp32";
    const BYTES: usize = 4;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
}

impl Scalar for F16 {
    const NAME: &'static str = "fp16";
    const BYTES: usize = 2;
    const ZERO: Self = F16::ZERO;
    const ONE: Self = F16::ONE;

    #[inline]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }

    #[inline]
    fn is_zero(self) -> bool {
        F16::is_zero(self)
    }
}

impl Scalar for Tf32 {
    const NAME: &'static str = "tf32";
    // TF32 values occupy a full 32-bit register/memory word on NVIDIA GPUs.
    const BYTES: usize = 4;
    const ZERO: Self = Tf32::ZERO;
    const ONE: Self = Tf32::ONE;

    #[inline]
    fn from_f32(x: f32) -> Self {
        Tf32::from_f32(x)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        Tf32::to_f32(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_exact<S: Scalar>(values: &[f32]) {
        for &v in values {
            let s = S::from_f32(v);
            assert_eq!(s.to_f32(), v, "{} should hold {v} exactly", S::NAME);
        }
    }

    #[test]
    fn identities() {
        assert_eq!(f32::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(Tf32::ZERO.to_f32(), 0.0);
        assert_eq!(f32::ONE.to_f32(), 1.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(Tf32::ONE.to_f32(), 1.0);
    }

    #[test]
    fn sizes() {
        assert_eq!(f32::BYTES, 4);
        assert_eq!(F16::BYTES, 2);
        assert_eq!(Tf32::BYTES, 4);
        assert_eq!(std::mem::size_of::<F16>(), 2);
        assert_eq!(std::mem::size_of::<Tf32>(), 4);
    }

    #[test]
    fn small_integers_exact_in_all_precisions() {
        let vals: Vec<f32> = (-512..=512).map(|i| i as f32).collect();
        roundtrip_exact::<f32>(&vals);
        roundtrip_exact::<F16>(&vals);
        roundtrip_exact::<Tf32>(&vals);
    }

    #[test]
    fn is_zero_detects_both_signs() {
        assert!(F16::from_f32(-0.0).is_zero());
        assert!(Tf32::from_f32(0.0).is_zero());
        assert!(!F16::from_f32(1e-5).is_zero() || F16::from_f32(1e-5).to_f32() == 0.0);
    }
}
