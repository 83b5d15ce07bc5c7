//! Property-based tests for the serving layer: the cache byte-budget
//! invariant and hit/miss output equivalence (ISSUE 2 satellite).

use std::time::Duration;

use flashsparse::{auto_tune, TranslatedMatrix};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::{
    ByteLru, CachedFormat, EngineConfig, Fingerprint, Footprint, FormatCache, ServeEngine,
    SpmmOutcome, SpmmRequest,
};
use fs_tcu::GpuSpec;
use proptest::prelude::*;

fn arb_csr() -> impl Strategy<Value = CsrMatrix<f32>> {
    (1usize..96, 1usize..96, 0usize..500, 0u64..10_000)
        .prop_map(|(r, c, nnz, seed)| CsrMatrix::from_coo(&random_uniform::<f32>(r, c, nnz, seed)))
}

fn translate(csr: &CsrMatrix<f32>, n: usize) -> CachedFormat {
    let choice = auto_tune(csr, n, GpuSpec::RTX4090);
    CachedFormat { translated: TranslatedMatrix::translate(csr, &choice), choice }
}

/// Drive `cache` through `ops` — `(entry index, operation)` — holding it
/// to its budget, and its stats to its contents, after every step.
fn churn<K: Copy + Eq + std::hash::Hash, V: Footprint>(
    mut cache: ByteLru<K, V>,
    ops: &[(usize, u8)],
    key: impl Fn(usize) -> K,
    value: impl Fn(usize) -> V,
) {
    let budget = cache.budget_bytes();
    for &(idx, op) in ops {
        match op {
            0 => drop(cache.get(&key(idx))),
            1 | 2 => drop(cache.insert(key(idx), value(idx))),
            3 => drop(cache.replace(key(idx), value(idx))),
            _ => {
                let doomed = key(idx);
                let resident = cache.stats().entries;
                let dropped = cache.retain(|k| *k != doomed);
                prop_assert_eq!(cache.stats().entries, resident - dropped);
            }
        }
        prop_assert!(
            cache.resident_bytes() <= budget,
            "resident {} > budget {} after op {} on entry {}",
            cache.resident_bytes(),
            budget,
            op,
            idx
        );
    }
    let s = cache.stats();
    prop_assert!(s.resident_bytes <= s.budget_bytes);
    prop_assert_eq!(s.resident_bytes, cache.resident_bytes());
    // What is resident is exactly what the entries weigh.
    cache.retain(|_| false);
    prop_assert_eq!(cache.resident_bytes(), 0);
}

fn spmm_via_engine(cfg: EngineConfig, csr: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> Vec<Vec<f32>> {
    let engine = ServeEngine::start(cfg);
    let info = engine.register_matrix("t", csr.clone()).expect("registered");
    let mut outs = Vec::new();
    for _ in 0..2 {
        let outcome = engine.spmm_blocking(SpmmRequest {
            tenant: "t".to_string(),
            matrix_id: info.id,
            b: b.clone(),
            deadline: Some(Duration::from_secs(60)),
        });
        match outcome {
            Ok(SpmmOutcome::Done(resp)) => outs.push(resp.out.to_f32_vec()),
            other => panic!("request failed: {other:?}"),
        }
    }
    engine.shutdown();
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The LRU never holds more resident bytes than its budget, across a
    /// random interleaving of inserts, lookups, duplicate inserts,
    /// replacements and invalidations — including budgets far too small
    /// for any single entry — for both of its users: translated formats
    /// keyed by fingerprint, and per-layer GNN embeddings.
    #[test]
    fn cache_never_exceeds_budget(
        budget_kb in 0usize..64,
        ops in prop::collection::vec((0usize..12, 0u8..5), 1..40),
    ) {
        let budget = budget_kb * 1024;
        // A small pool of distinct matrices to churn through.
        let pool: Vec<CsrMatrix<f32>> = (0..12)
            .map(|i| {
                CsrMatrix::from_coo(&random_uniform::<f32>(
                    8 + i * 7,
                    8 + i * 5,
                    10 + i * 40,
                    i as u64,
                ))
            })
            .collect();
        let fps: Vec<Fingerprint> = pool.iter().map(Fingerprint::of).collect();
        churn(FormatCache::new(budget), &ops, |i| fps[i], |i| translate(&pool[i], 16));
        // Two "layers" per embedding, growing with the index: 0.5–12 KiB.
        let embedding = |i: usize| vec![DenseMatrix::<f32>::zeros(8 + 8 * i, 8); 2];
        churn(ByteLru::new(budget), &ops, |i| (i as u64, 2u8), embedding);
    }

    /// A cache hit returns bit-identical SpMM output to the cold path:
    /// the same request through a warm engine (second call hits) and a
    /// cold engine (budget 0, translate+tune every time) must agree to
    /// the bit, and the warm engine must agree with itself across the
    /// miss→hit transition. Classic path only (`pipeline: false`): the
    /// pipelined engine answers the miss with the FALLBACK variant and
    /// upgrades in the background, so its miss→hit bits may differ by
    /// design — its own invariant is the property below.
    #[test]
    fn cache_hit_is_bit_identical_to_cold_path(csr in arb_csr(), n in 1usize..48) {
        let b_vals: Vec<f32> =
            (0..csr.cols() * n).map(|i| ((i % 13) as f32 - 6.0) * 0.375).collect();
        let b = DenseMatrix::from_f32_slice(csr.cols(), n, &b_vals);

        let warm = spmm_via_engine(
            EngineConfig { workers: 1, pipeline: false, ..EngineConfig::default() },
            &csr,
            &b,
        );
        let cold = spmm_via_engine(
            EngineConfig { workers: 1, cold: true, pipeline: false, ..EngineConfig::default() },
            &csr,
            &b,
        );
        // Miss→hit within the warm engine: identical bits.
        prop_assert_eq!(
            warm[0].iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            warm[1].iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
        // Warm hit vs cold path: identical bits.
        prop_assert_eq!(
            warm[1].iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            cold[0].iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
    }

    /// The pipelined cold path is not a numerics change: a cold pipelined
    /// engine (every request misses, so every request runs the overlapped
    /// FALLBACK-variant SpMM) must agree bit-for-bit with a direct
    /// FALLBACK-variant translate + execute, for every ragged shape.
    #[test]
    fn overlapped_cold_path_is_bit_identical_to_fallback_variant(
        csr in arb_csr(),
        n in 1usize..48,
    ) {
        let b_vals: Vec<f32> =
            (0..csr.cols() * n).map(|i| ((i % 13) as f32 - 6.0) * 0.375).collect();
        let b = DenseMatrix::from_f32_slice(csr.cols(), n, &b_vals);

        let choice = flashsparse::TuneChoice::FALLBACK;
        let want = TranslatedMatrix::translate(&csr, &choice)
            .spmm_f32(&b, choice.mapping)
            .0
            .to_f32_vec();

        let served = spmm_via_engine(
            EngineConfig { workers: 1, cold: true, ..EngineConfig::default() },
            &csr,
            &b,
        );
        for out in &served {
            prop_assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            );
        }
    }
}
