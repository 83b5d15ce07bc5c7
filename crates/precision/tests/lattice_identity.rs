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
//!
//! The crate has one rounding implementation — straight-line integer
//! code in `f32_through_f16` / `Tf32::from_f32`, which `F16::from_f32`
//! repacks. The branch-per-case conversions it replaced live on in
//! [`oracle`], and the `#[ignore]`d sweep compares the two on all 2^32
//! f32 patterns (`cargo test --release -p fs-precision -- --ignored`,
//! ≈10 s on two cores; `ci.sh` runs it). The tests above it are the
//! debug-build guard.

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

/// The conversions as they were written before the branch-light
/// rewrite — one early return per IEEE case, rounding on the narrow
/// pattern — kept as they were, as an independent second implementation.
mod oracle {
    const EXP_MASK: u16 = 0x7C00;
    const MAN_MASK: u16 = 0x03FF;

    pub fn f16_from_f32(value: f32) -> u16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
            return if man == 0 {
                sign | EXP_MASK
            } else {
                sign | EXP_MASK | 0x0200 | ((man >> 13) as u16 & MAN_MASK)
            };
        }

        // Unbiased exponent, then re-bias for f16 (bias 15 vs 127).
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow → infinity (RNE never rounds to MAX from above overflow
            // threshold; values in (65504, 65520) round to 65504).
            // The exact threshold: anything >= 65520 becomes inf; handle via
            // full rounding below for the edge exponent.
            if unbiased > 16 {
                return sign | EXP_MASK;
            }
        }

        if unbiased >= -14 {
            // Candidate normal number.
            let exp16 = (unbiased + 15) as u16;
            // 23-bit mantissa → 10-bit with RNE on the dropped 13 bits.
            let man16 = man >> 13;
            let round_bits = man & 0x1FFF;
            let halfway = 0x1000;
            let mut result = ((exp16 << 10) | man16 as u16) | sign;
            if round_bits > halfway || (round_bits == halfway && (man16 & 1) == 1) {
                // Mantissa carry may overflow into the exponent; that is the
                // correct behaviour (e.g. 2047.5 rounds up a binade).
                result = result.wrapping_add(1);
            }
            // Overflow past the largest finite exponent becomes infinity.
            if result & EXP_MASK == EXP_MASK && result & MAN_MASK != 0 {
                // Can't happen from the carry path, but guard anyway.
                result = sign | EXP_MASK;
            }
            if exp16 >= 31 {
                // We were already at/above the overflow binade before rounding.
                return sign | EXP_MASK;
            }
            return result;
        }

        if unbiased >= -25 {
            // Subnormal: shift the implicit leading 1 into the mantissa.
            let full_man = man | 0x0080_0000;
            let shift = (-14 - unbiased + 13) as u32;
            let man16 = (full_man >> shift) as u16;
            let round_bits = full_man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut result = man16 | sign;
            if round_bits > halfway || (round_bits == halfway && (man16 & 1) == 1) {
                result = result.wrapping_add(1);
            }
            return result;
        }

        sign
    }

    pub fn f16_to_f32(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h & EXP_MASK) >> 10) as u32;
        let man = (h & MAN_MASK) as u32;

        let bits = if exp == 0 {
            if man == 0 {
                sign
            } else {
                // Normalize so the MSB of `man` becomes the implicit 1.
                let lz = man.leading_zeros() - 21;
                let man_norm = (man << lz) & MAN_MASK as u32;
                let exp32 = 127 - 14 - lz;
                sign | (exp32 << 23) | (man_norm << 13)
            }
        } else if exp == 0x1F {
            if man == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7F80_0000 | (man << 13) | 0x0040_0000
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }

    pub fn tf32_from_f32(value: f32) -> f32 {
        if value.is_nan() {
            return f32::NAN;
        }
        let bits = value.to_bits();
        let round_bits = bits & 0x1FFF;
        let halfway = 0x1000;
        let kept = bits & !0x1FFF;
        let kept_lsb = (bits >> 13) & 1;
        if round_bits > halfway || (round_bits == halfway && kept_lsb == 1) {
            f32::from_bits(kept.wrapping_add(0x2000))
        } else {
            f32::from_bits(kept)
        }
    }
}

#[test]
fn widening_matches_the_oracle_on_every_f16() {
    for bits in 0..=u16::MAX {
        assert_eq!(
            F16::from_bits(bits).to_f32().to_bits(),
            oracle::f16_to_f32(bits).to_bits(),
            "{bits:#06x}"
        );
    }
}

/// Patterns in `range` on which any conversion disagrees with its oracle.
fn mismatches(range: std::ops::RangeInclusive<u32>) -> Vec<u32> {
    range
        .filter(|&p| {
            let x = f32::from_bits(p);
            let h = oracle::f16_from_f32(x);
            let t = oracle::tf32_from_f32(x).to_bits();
            F16::from_f32(x).to_bits() != h
                || f32_through_f16(x).to_bits() != oracle::f16_to_f32(h).to_bits()
                || Tf32::from_f32(x).to_bits() != t
                || f32_to_tf32(x).to_bits() != t
        })
        .collect()
}

#[test]
#[ignore = "all 2^32 f32 patterns: cargo test --release -p fs-precision -- --ignored"]
fn roundings_match_the_oracle_on_all_f32() {
    let bad = std::thread::scope(|s| {
        let low = s.spawn(|| mismatches(0..=0x7FFF_FFFF));
        let mut bad = mismatches(0x8000_0000..=u32::MAX);
        bad.extend(low.join().expect("sweep thread panicked"));
        bad
    });
    assert!(bad.is_empty(), "{} mismatches, first {:#010x?}", bad.len(), &bad[..bad.len().min(8)]);
}
