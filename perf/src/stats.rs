//! Order statistics, the output hash and the seed mixer.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the rule
/// under which a tail percentile is worth reporting (p95 needs n ≥ 200).
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= 10
}

/// FNV-1a over the bit patterns of `values`, one 32-bit word per step, so
/// hashing a 4 MiB output costs about a millisecond.
pub fn fnv64_f32(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 of `seed` and a stream index: distinct, well-mixed seeds for
/// every generator and operand a workload derives from `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&v[..1], 0.95), 1.0);
        // 7 samples: rank ceil(0.95 * 7) = 7.
        assert_eq!(percentile(&v[..7], 0.95), 7.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(199, 0.95));
        assert!(!percentile_supported(0, 0.95));
        assert!(percentile_supported(20, 0.50));
        assert!(!percentile_supported(19, 0.50));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn hash_sees_every_bit_and_the_order() {
        let a = fnv64_f32(&[1.0, 2.0, 3.0]);
        assert_eq!(a, fnv64_f32(&[1.0, 2.0, 3.0]));
        assert_ne!(a, fnv64_f32(&[2.0, 1.0, 3.0]));
        assert_ne!(a, fnv64_f32(&[1.0, 2.0, f32::from_bits(3.0f32.to_bits() ^ 1)]));
        assert_ne!(fnv64_f32(&[0.0]), fnv64_f32(&[-0.0]));
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
