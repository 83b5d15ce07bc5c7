//! The operand lattices are closed under their own rounding.
//!
//! The flashsparse fast path rounds every operand to the MMA lattice
//! once and never again: a stored `F16`/`Tf32` is only widened, and an
//! f32 accumulator is rounded straight into f32. That is sound only if
//! (a) every stored value is a fixed point of the operand rounding the
//! simulator applies per MMA (`f32_through_f16` / `f32_to_tf32`), and
//! (b) those free functions return exactly the bits the typed
//! `from_f32(..).to_f32()` round trip stores. Both are checked here
//! over the whole lattice, at every rounding midpoint, and on seeded
//! samples of the full f32 space.

use fs_precision::{f32_through_f16, f32_to_tf32, Tf32, F16};

const F16_EXP: u16 = 0x7C00;
const F16_QUIET: u16 = 0x0200;

/// xorshift64*: seeded f32 bit patterns over the whole space, NaNs and
/// infinities included.
fn samples(seed: u64, count: usize) -> impl Iterator<Item = f32> {
    let mut state = seed | 1;
    (0..count).map(move |_| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        f32::from_bits((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32)
    })
}

#[test]
fn every_f16_is_a_fixed_point_of_its_rounding() {
    for bits in 0..=u16::MAX {
        let h = F16::from_bits(bits);
        let x = h.to_f32();
        assert_eq!(
            f32_through_f16(x).to_bits(),
            x.to_bits(),
            "re-rounding the widened {bits:#06x} must be the identity"
        );
        // Narrowing gives the stored pattern back; a signalling NaN
        // comes back quieted (widening sets the quiet bit, as the
        // hardware conversion does), payload intact.
        let signalling = bits & F16_EXP == F16_EXP && bits & 0x03FF != 0 && bits & F16_QUIET == 0;
        let expect = if signalling { bits | F16_QUIET } else { bits };
        assert_eq!(F16::from_f32(x).to_bits(), expect, "{bits:#06x}");
    }
}

#[test]
fn every_tf32_is_a_fixed_point_of_its_rounding() {
    // All 2^19 sign/exponent/10-bit-mantissa patterns.
    for p in 0..1u32 << 19 {
        let x = f32::from_bits(p << 13);
        let t = Tf32::from_f32(x);
        if x.is_nan() {
            assert!(t.is_nan());
        } else {
            assert_eq!(
                t.to_bits(),
                x.to_bits(),
                "lattice point {:#010x} must store as is",
                p << 13
            );
        }
        assert_eq!(f32_to_tf32(t.to_f32()).to_bits(), t.to_bits(), "{:#010x}", p << 13);
    }
}

/// Both operand roundings on `x`: the free function must return the
/// bits the typed round trip stores, and its result must be a fixed
/// point (rounding an accumulator straight into f32 loses nothing a
/// later narrowing would have caught).
fn check_rounding_agrees(x: f32) {
    let h = f32_through_f16(x);
    assert_eq!(F16::from_f32(x).to_f32().to_bits(), h.to_bits(), "fp16 of {:#010x}", x.to_bits());
    assert_eq!(
        f32_through_f16(h).to_bits(),
        h.to_bits(),
        "fp16 idempotence at {:#010x}",
        x.to_bits()
    );
    let t = f32_to_tf32(x);
    assert_eq!(Tf32::from_f32(x).to_f32().to_bits(), t.to_bits(), "tf32 of {:#010x}", x.to_bits());
    assert_eq!(f32_to_tf32(t).to_bits(), t.to_bits(), "tf32 idempotence at {:#010x}", x.to_bits());
}

#[test]
fn fp16_rounds_to_nearest_even_at_every_midpoint() {
    // Every pair of adjacent non-negative binary16 values, subnormals
    // and the overflow threshold (65504 | 65520 | "65536" = inf) included.
    for bits in 0..F16_EXP {
        let lo = F16::from_bits(bits).to_f32();
        let (hi, hi_rounded) = if bits + 1 == F16_EXP {
            (65536.0, f32::INFINITY)
        } else {
            let hi = F16::from_bits(bits + 1).to_f32();
            (hi, hi)
        };
        // A binary16 midpoint needs 12 significant bits: exact in f32.
        let mid = ((f64::from(lo) + f64::from(hi)) / 2.0) as f32;
        let below = f32::from_bits(mid.to_bits() - 1);
        let above = f32::from_bits(mid.to_bits() + 1);
        let even = if bits & 1 == 0 { lo } else { hi_rounded };
        for sign in [1.0f32, -1.0] {
            for (x, want) in [(below, lo), (mid, even), (above, hi_rounded)] {
                assert_eq!(
                    f32_through_f16(sign * x).to_bits(),
                    (sign * want).to_bits(),
                    "{:e} between {bits:#06x} and its successor",
                    sign * x
                );
                check_rounding_agrees(sign * x);
            }
        }
    }
}

#[test]
fn tf32_rounds_to_nearest_even_at_every_midpoint() {
    // Every finite non-negative lattice point and its successor (the
    // last one's successor is +inf, which the carry produces).
    for p in 0..0xFFu32 << 10 {
        let lo = p << 13;
        let hi = (p + 1) << 13;
        let mid = lo | 0x1000;
        let even = if p & 1 == 0 { lo } else { hi };
        for sign in [0u32, 1 << 31] {
            for (x, want) in [(mid - 1, lo), (mid, even), (mid + 1, hi)] {
                let x = f32::from_bits(x | sign);
                assert_eq!(f32_to_tf32(x).to_bits(), want | sign, "{:#010x}", x.to_bits());
                check_rounding_agrees(x);
            }
        }
    }
}

#[test]
fn roundings_agree_on_seeded_samples_of_all_f32() {
    for seed in [11, 23] {
        for x in samples(seed, 500_000) {
            check_rounding_agrees(x);
        }
    }
}
