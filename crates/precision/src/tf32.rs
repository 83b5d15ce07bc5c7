//! TensorFloat-32: NVIDIA's 19-bit tensor-core input format.
//!
//! TF32 keeps the full 8-bit f32 exponent but truncates the mantissa to 10
//! bits. On Ampere-and-later GPUs, f32 operands are rounded to TF32 on entry
//! to the tensor core; products and accumulation stay in f32. We model the
//! rounding as round-to-nearest-even on the dropped 13 mantissa bits, the
//! behaviour of `cvt.rna.tf32.f32` is round-to-nearest-away but the MMA path
//! documented for `mma.sync` uses RNE — the difference is below the error
//! bounds any of our experiments depend on, and RNE keeps the type an exact
//! sub-lattice of f32.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// An f32 value constrained to the TF32 lattice (10-bit mantissa).
///
/// Stored as a full `f32` whose low 13 mantissa bits are always zero, so
/// `to_f32` is free and arithmetic results are re-rounded on construction.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(transparent)]
pub struct Tf32(f32);

/// Mask clearing the 13 f32 mantissa bits TF32 drops.
const TRUNC_MASK: u32 = !0x1FFF;

impl Tf32 {
    /// Zero.
    pub const ZERO: Tf32 = Tf32(0.0);
    /// One.
    pub const ONE: Tf32 = Tf32(1.0);

    /// Round an `f32` to the TF32 lattice (RNE on the dropped 13 bits).
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        // Half an ulp minus one, plus the kept lsb, then truncate. The
        // add may carry into the exponent; that is correct (rounding up
        // across a binade), and overflow produces ±inf with the right bit
        // pattern because f32::MAX's upper bits + 1 == inf.
        let rounded = bits.wrapping_add(0x0FFF + (bits >> 13 & 1)) & TRUNC_MASK;
        Tf32(if value.is_nan() { f32::NAN } else { f32::from_bits(rounded) })
    }

    /// The exact `f32` value (TF32 is a subset of f32).
    #[inline]
    pub const fn to_f32(self) -> f32 {
        self.0
    }

    /// Raw f32 bit pattern (low 13 bits always zero for non-NaN).
    #[inline]
    pub fn to_bits(self) -> u32 {
        self.0.to_bits()
    }

    /// `true` if NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.0.is_nan()
    }

    /// `true` if finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Tf32(self.0.abs())
    }
}

impl From<f32> for Tf32 {
    #[inline]
    fn from(v: f32) -> Self {
        Tf32::from_f32(v)
    }
}

impl From<Tf32> for f32 {
    #[inline]
    fn from(v: Tf32) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for Tf32 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl fmt::Debug for Tf32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tf32({})", self.0)
    }
}

impl fmt::Display for Tf32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Tf32 {
            type Output = Tf32;
            #[inline]
            fn $method(self, rhs: Tf32) -> Tf32 {
                Tf32::from_f32(self.0.$method(rhs.0))
            }
        }
    };
}

impl_binop!(Add, add);
impl_binop!(Sub, sub);
impl_binop!(Mul, mul);
impl_binop!(Div, div);

impl AddAssign for Tf32 {
    #[inline]
    fn add_assign(&mut self, rhs: Tf32) {
        *self = *self + rhs;
    }
}

impl MulAssign for Tf32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Tf32) {
        *self = *self * rhs;
    }
}

impl Neg for Tf32 {
    type Output = Tf32;
    #[inline]
    fn neg(self) -> Tf32 {
        Tf32(-self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_mantissa_bits_cleared() {
        for &x in &[1.0f32, std::f32::consts::PI, -std::f32::consts::E, 1e-20, 1e20, 12345.678] {
            let t = Tf32::from_f32(x);
            if t.is_finite() && t.to_f32() != 0.0 {
                assert_eq!(t.to_bits() & 0x1FFF, 0, "x={x}");
            }
        }
    }

    #[test]
    fn exact_values_preserved() {
        // Anything with ≤10 mantissa bits is exact.
        for i in -1024..=1024 {
            let t = Tf32::from_f32(i as f32);
            assert_eq!(t.to_f32(), i as f32);
        }
        assert_eq!(Tf32::from_f32(0.5).to_f32(), 0.5);
        assert_eq!(Tf32::from_f32(0.09375).to_f32(), 0.09375);
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 sits exactly between 1 and 1+2^-10 → rounds to even (1).
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(Tf32::from_f32(x).to_f32(), 1.0);
        // 1 + 3·2^-11 sits between 1+2^-10 and 1+2^-9 → rounds to 1+2^-9
        // because the retained lsb of 1+2^-10 is odd.
        let y = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(Tf32::from_f32(y).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Just above halfway → up.
        let z = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(Tf32::from_f32(z).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn relative_error_bound() {
        // TF32 relative rounding error ≤ 2^-11.
        let mut x = 1.000001f32;
        for _ in 0..100 {
            let t = Tf32::from_f32(x).to_f32();
            let rel = ((t - x) / x).abs();
            assert!(rel <= 2.0f32.powi(-11), "x={x} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn specials() {
        assert!(Tf32::from_f32(f32::NAN).is_nan());
        assert_eq!(Tf32::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(Tf32::from_f32(-0.0).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn arithmetic_rounds_back() {
        let a = Tf32::from_f32(1.0);
        let b = Tf32::from_f32(2.0f32.powi(-11));
        // b is exact in TF32 (single bit) but a+b is not representable → a.
        assert_eq!((a + b).to_f32(), 1.0);
        let c = Tf32::from_f32(3.0);
        assert_eq!((a + c).to_f32(), 4.0);
        assert_eq!((c * c).to_f32(), 9.0);
    }

    #[test]
    fn idempotent() {
        for &x in &[0.1f32, 7.3, -123.456, 65504.1, 1e-30] {
            let once = Tf32::from_f32(x);
            let twice = Tf32::from_f32(once.to_f32());
            assert_eq!(once.to_bits(), twice.to_bits());
        }
    }
}
