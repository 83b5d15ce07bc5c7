//! IEEE 754 binary16 ("half precision") implemented in software.
//!
//! The representation is the raw 16-bit pattern (1 sign, 5 exponent, 10
//! mantissa bits). Conversions implement round-to-nearest-even including
//! subnormal handling, matching what the `cvt.rn.f16.f32` PTX instruction
//! produces on NVIDIA GPUs.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Arithmetic is performed by widening to `f32`, operating, and rounding back
/// — the same datapath as scalar half-precision ALUs. Tensor-core MMA does
/// *not* round intermediate products back to f16; kernels model that by
/// widening operands with [`F16::to_f32`] and accumulating in `f32`.
///
/// **Equality is bitwise** (`F16` is a storage type): `+0.0 != -0.0` and
/// `NAN == NAN` under `==`. Use [`F16::to_f32`] for IEEE comparison
/// semantics.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;
/// Smallest positive normal binary16 (2^-14).
const MIN_NORMAL: u16 = 0x0400;

const F32_SIGN: u32 = 0x8000_0000;
const F32_INF: u32 = 0x7F80_0000;
/// The quiet bit of an f32 NaN.
const F32_QUIET: u32 = 0x0040_0000;
/// 0.5f32, whose ulp is the binary16 subnormal spacing 2^-24.
const HALF: u32 = 0x3F00_0000;
/// 2^-14 as f32: below it binary16 is subnormal.
const F32_MIN_NORMAL_F16: u32 = 0x3880_0000;
/// 65520 as f32, the midpoint of `F16::MAX` and 2^16: it and everything
/// above rounds to infinity (the tie goes to the even mantissa, up).
const F32_OVERFLOW_F16: u32 = 0x477F_F000;
/// Difference of the exponent biases (127 − 15).
const EXP_REBIAS: u32 = 112;

/// Round an `f32` to the nearest binary16 value (ties to even) and return
/// it as an `f32` — the value a tensor core sees after an FP16 register
/// load. The one rounding implementation: [`F16::from_f32`] repacks its
/// result.
///
/// Straight-line integer code on the magnitude, one select per range, so
/// loops over it vectorise. A NaN comes out quiet with its top 10 payload
/// bits; the sign is ORed back at the end, so `-0.0` and negative
/// underflow keep it.
#[inline]
pub fn f32_through_f16(x: f32) -> f32 {
    let bits = x.to_bits();
    let mag = bits & !F32_SIGN;
    let rounded = if mag > F32_INF {
        (mag & !0x1FFF) | F32_QUIET
    } else if mag >= F32_OVERFLOW_F16 {
        F32_INF
    } else if mag >= F32_MIN_NORMAL_F16 {
        // RNE on the 13 dropped mantissa bits: half an ulp minus one,
        // plus the kept lsb, then truncate. A mantissa carry moves up a
        // binade, which is the right answer.
        (mag + 0x0FFF + (mag >> 13 & 1)) & !0x1FFF
    } else {
        // Subnormal grid 2^-24: 0.5 has exactly that ulp, so the FPU's
        // own RNE add rounds to the grid (anything under 2^-25 to zero)
        // and taking the 0.5 off again is exact.
        ((f32::from_bits(mag) + 0.5) - 0.5).to_bits()
    };
    f32::from_bits(bits & F32_SIGN | rounded)
}

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(SIGN_MASK);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(EXP_MASK);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(SIGN_MASK | EXP_MASK);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value (-65504).
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value (2^-24).
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Create from the raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Return the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert an `f32` to binary16 with round-to-nearest-even: round in
    /// the f32 domain ([`f32_through_f16`]), then repack the lattice point.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let rounded = f32_through_f16(value).to_bits();
        let sign = (rounded >> 16) as u16 & SIGN_MASK;
        let mag = rounded & !F32_SIGN;
        let packed = if mag >= F32_INF {
            // Inf, or a NaN whose top 10 payload bits survived the rounding.
            u32::from(EXP_MASK) | (mag >> 13 & u32::from(MAN_MASK))
        } else if mag >= F32_MIN_NORMAL_F16 {
            // Re-bias the exponent (127 → 15); the low 13 bits are zero.
            (mag >> 13) - (EXP_REBIAS << 10)
        } else {
            // `n · 2^-24`: adding 0.5 (ulp 2^-24) leaves `n` in the low
            // mantissa bits, exactly.
            (f32::from_bits(mag) + 0.5).to_bits() - HALF
        };
        F16(sign | packed as u16) // lint: checked-cast - every arm is at most 0x7FFF
    }

    /// Convert to `f32` exactly (every binary16 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & SIGN_MASK) << 16;
        let mag = u32::from(self.0 & !SIGN_MASK);
        let bits = if mag > u32::from(EXP_MASK) {
            // A NaN keeps its payload and comes out quiet.
            F32_INF | F32_QUIET | (mag & u32::from(MAN_MASK)) << 13
        } else if mag == u32::from(EXP_MASK) {
            F32_INF
        } else if mag >= u32::from(MIN_NORMAL) {
            (mag << 13) + (EXP_REBIAS << 23)
        } else {
            // Subnormal (or zero) `n · 2^-24`: `0.5 + n · 2^-24` has the
            // bits `HALF + n`, and taking the 0.5 off again is exact.
            (f32::from_bits(HALF + mag) - 0.5).to_bits()
        };
        f32::from_bits(sign | bits)
    }

    /// Convert from `f64` (via f32; double rounding is acceptable here because
    /// the kernels never produce f64 inputs).
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MAN_MASK != 0
    }

    /// `true` if this value is +∞ or −∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MAN_MASK == 0
    }

    /// `true` if this value is neither NaN nor infinite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 & EXP_MASK != EXP_MASK
    }

    /// `true` for +0.0 and −0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & !SIGN_MASK == 0
    }

    /// `true` if the value is subnormal.
    #[inline]
    pub fn is_subnormal(self) -> bool {
        self.0 & EXP_MASK == 0 && self.0 & MAN_MASK != 0
    }

    /// Sign bit set (including −0.0 and NaNs with sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32().$method(rhs.to_f32()))
            }
        }
    };
}

impl_binop!(Add, add);
impl_binop!(Sub, sub);
impl_binop!(Mul, mul);
impl_binop!(Div, div);

impl AddAssign for F16 {
    #[inline]
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl MulAssign for F16 {
    #[inline]
    fn mul_assign(&mut self, rhs: F16) {
        *self = *self * rhs;
    }
}

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn special_values() {
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
        assert!(!F16::ONE.is_nan());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
    }

    #[test]
    fn exact_small_integers() {
        for i in -2048..=2048 {
            let h = F16::from_f32(i as f32);
            assert_eq!(h.to_f32(), i as f32, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn rne_rounding() {
        // 2049 is exactly between 2048 and 2050 → rounds to even (2048).
        assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
        // 2051 is between 2050 and 2052 → rounds to even (2052).
        assert_eq!(F16::from_f32(2051.0).to_f32(), 2052.0);
        // 2049.5 is above halfway between 2048 and 2050 → 2050.
        assert_eq!(F16::from_f32(2049.5).to_f32(), 2050.0);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e30), F16::NEG_INFINITY);
        // 65504 + something below half-ULP stays MAX.
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        assert_eq!(F16::from_f32(65519.9), F16::MAX);
    }

    #[test]
    fn subnormal_roundtrip() {
        // All subnormal bit patterns roundtrip exactly through f32.
        for bits in 1u16..0x0400 {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            assert_eq!(h, back, "subnormal {bits:#06x} roundtrip");
            assert!(h.is_subnormal());
        }
    }

    #[test]
    fn all_finite_bit_patterns_roundtrip() {
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_finite() {
                let back = F16::from_f32(h.to_f32());
                assert_eq!(h.to_bits(), back.to_bits(), "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn flush_to_zero_below_subnormal_range() {
        assert_eq!(F16::from_f32(1e-10), F16::ZERO);
        assert_eq!(F16::from_f32(-1e-10), F16::NEG_ZERO);
        assert!(F16::from_f32(-1e-10).is_sign_negative());
    }

    #[test]
    fn arithmetic() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn precision_loss_is_modelled() {
        // 1 + 2^-11 is not representable; rounds back to 1.
        let one = F16::ONE;
        let tiny = F16::from_f32(2.0f32.powi(-11));
        assert_eq!(one + tiny, one);
        // but 1 + 2^-10 is representable.
        let eps = F16::EPSILON;
        assert!((one + eps).to_f32() > 1.0);
    }

    #[test]
    fn special_value_arithmetic() {
        // Infinity and NaN propagate through the widening datapath.
        assert!((F16::INFINITY + F16::NEG_INFINITY).is_nan());
        assert_eq!(F16::INFINITY + F16::ONE, F16::INFINITY);
        assert!((F16::ZERO / F16::ZERO).is_nan());
        assert_eq!(F16::ONE / F16::ZERO, F16::INFINITY);
        assert_eq!(F16::NEG_ONE / F16::ZERO, F16::NEG_INFINITY);
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::NAN * F16::ZERO).is_nan());
        // Overflowing multiply saturates to infinity after rounding.
        assert_eq!(F16::MAX * F16::from_f32(2.0), F16::INFINITY);
    }

    #[test]
    fn signed_zero_semantics() {
        // Equality on F16 is bitwise (storage semantics): the two zeros
        // are distinct patterns but equal as IEEE values via f32.
        assert_ne!(F16::ZERO, F16::NEG_ZERO);
        assert_eq!(F16::ZERO.to_f32(), F16::NEG_ZERO.to_f32());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(F16::NEG_ZERO.is_zero() && F16::ZERO.is_zero());
        assert_eq!((-F16::NEG_ZERO).to_bits(), F16::ZERO.to_bits());
    }

    #[test]
    fn abs_strips_sign_only() {
        assert_eq!(F16::from_f32(-3.5).abs().to_f32(), 3.5);
        assert_eq!(F16::NEG_INFINITY.abs(), F16::INFINITY);
        assert!(F16::NAN.abs().is_nan());
    }

    #[test]
    fn ordering() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert!(F16::MAX < F16::INFINITY);
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
    }
}
