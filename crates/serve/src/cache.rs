//! The byte-budget LRU, and the translated-format cache it was written
//! for: translation + tuning paid once per matrix.
//!
//! Acc-SpMM and cuTeSpMM both observe that in real deployments the
//! preprocessing cost (format translation, variant selection) dominates a
//! single kernel launch by orders of magnitude and must be amortized.
//! [`FormatCache`] holds [`CachedFormat`] entries — the ME-BCRS
//! translation plus the [`TuneChoice`] that selected it — under a **byte
//! budget** measured with fs-format's footprint accounting (the same
//! numbers as the paper's Table 7), evicting least-recently-used entries
//! to stay within it. Entries larger than the whole budget are served but
//! never stored, so the budget is a hard invariant (proptested in
//! `tests/proptests.rs::cache_never_exceeds_budget`).
//!
//! The LRU itself, [`ByteLru`], is generic over key and value: the GNN
//! embedding cache (`gnn_infer`) is the same structure keyed by `(model,
//! precision, feature fingerprint)`.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use flashsparse::{TranslatedMatrix, TuneChoice};
use fs_format::MemoryFootprint;
use fs_trace::export::JsonWriter;

use crate::fingerprint::Fingerprint;

/// Something that is charged against a byte budget while it is resident
/// — a cache entry, a registered matrix, a registered model.
pub trait Footprint {
    /// Bytes this value keeps resident.
    fn footprint_bytes(&self) -> usize;
}

/// A fully preprocessed matrix: the translated storage and the tuned
/// kernel configuration that chose it.
#[derive(Clone, Debug)]
pub struct CachedFormat {
    /// The ME-BCRS translation in the chosen variant's layout.
    pub translated: TranslatedMatrix,
    /// The auto-tuner's winning configuration.
    pub choice: TuneChoice,
}

/// The translated arrays plus the (fixed-size) tune choice wire form.
impl Footprint for CachedFormat {
    fn footprint_bytes(&self) -> usize {
        self.translated.footprint_bytes() + TuneChoice::WIRE_BYTES
    }
}

/// Hit/miss/eviction counters, snapshot-able while the cache is live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that found nothing (caller pays translation + tuning).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts refused because the entry alone exceeds the budget.
    pub rejected_oversize: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
}

impl CacheStats {
    /// Hits over lookups (1.0 when no lookups yet — vacuously perfect,
    /// matching the counter conventions elsewhere in the workspace).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// JSON object for the metrics endpoint.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("hits", self.hits);
        w.field_u64("misses", self.misses);
        w.field_u64("evictions", self.evictions);
        w.field_u64("rejected_oversize", self.rejected_oversize);
        w.field_u64("entries", self.entries as u64);
        w.field_u64("resident_bytes", self.resident_bytes as u64);
        w.field_u64("budget_bytes", self.budget_bytes as u64);
        w.key("hit_rate").value_raw(&format!("{:.6}", self.hit_rate()));
        w.end_object();
        w.finish()
    }
}

/// An LRU cache with a byte-footprint budget.
///
/// Not internally synchronized — its owner wraps it in a mutex. Entries
/// are handed out as `Arc`s, so an eviction never invalidates an entry a
/// worker is still reading, and a hit costs one `Arc` clone under the
/// lock however large the entry is.
pub struct ByteLru<K, V> {
    budget_bytes: usize,
    resident_bytes: usize,
    tick: u64,
    entries: HashMap<K, Slot<V>>,
    stats: CacheStats,
}

/// The translated-format cache, keyed by content fingerprint.
pub type FormatCache = ByteLru<Fingerprint, CachedFormat>;

struct Slot<V> {
    value: Arc<V>,
    footprint: usize,
    last_used: u64,
}

impl<K: Copy + Eq + Hash, V: Footprint> ByteLru<K, V> {
    /// An empty cache with the given byte budget. A zero budget disables
    /// residency entirely (every lookup misses) — the serving engine's
    /// "cold" configuration.
    pub fn new(budget_bytes: usize) -> ByteLru<K, V> {
        ByteLru {
            budget_bytes,
            resident_bytes: 0,
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&slot.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly built entry, evicting LRU entries until it fits.
    /// If the entry alone exceeds the budget it is *not* stored (the
    /// caller still gets its `Arc` back) — the budget is never exceeded,
    /// even transiently.
    pub fn insert(&mut self, key: K, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let footprint = value.footprint_bytes();
        if footprint > self.budget_bytes {
            self.stats.rejected_oversize += 1;
            return value;
        }
        // A racing worker may have inserted the same key while we built
        // ours; keep the resident one and drop ours.
        if let Some(slot) = self.entries.get(&key) {
            return Arc::clone(&slot.value);
        }
        while self.resident_bytes + footprint > self.budget_bytes {
            if !self.evict_lru() {
                break;
            }
        }
        self.resident_bytes += footprint;
        self.tick += 1;
        let slot = Slot { value: Arc::clone(&value), footprint, last_used: self.tick };
        self.entries.insert(key, slot);
        value
    }

    /// Insert-or-overwrite: like [`ByteLru::insert`] but a resident entry
    /// under the same key is replaced instead of kept. The background
    /// tuner uses this to upgrade a FALLBACK-variant entry (staged by the
    /// overlapped cold path) to the auto-tuned one — `insert`'s
    /// keep-the-resident race resolution would silently drop the upgrade.
    /// Not a lookup: hit/miss counters are untouched.
    pub fn replace(&mut self, key: K, value: V) -> Arc<V> {
        if let Some(slot) = self.entries.remove(&key) {
            self.resident_bytes -= slot.footprint;
        }
        self.insert(key, value)
    }

    /// Drop every entry whose key `keep` refuses — invalidation, not
    /// eviction, so the eviction counter is untouched. Returns how many
    /// entries fell.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let before = self.entries.len();
        let mut released = 0;
        self.entries.retain(|key, slot| {
            let kept = keep(key);
            if !kept {
                released += slot.footprint;
            }
            kept
        });
        self.resident_bytes -= released;
        before - self.entries.len()
    }

    /// Evict the least-recently-used entry. Returns false when empty.
    fn evict_lru(&mut self) -> bool {
        let victim = self.entries.iter().min_by_key(|(_, s)| s.last_used).map(|(key, _)| *key);
        match victim.and_then(|key| self.entries.remove(&key)) {
            Some(slot) => {
                self.resident_bytes -= slot.footprint;
                self.stats.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            resident_bytes: self.resident_bytes,
            budget_bytes: self.budget_bytes,
            ..self.stats
        }
    }

    /// Bytes currently resident (the proptest invariant accessor).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::random_uniform;
    use fs_matrix::CsrMatrix;
    use fs_tcu::GpuSpec;

    fn entry(seed: u64, rows: usize) -> (Fingerprint, CachedFormat) {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(rows, rows, rows * 4, seed));
        let choice = flashsparse::auto_tune(&csr, 16, GpuSpec::RTX4090);
        let translated = TranslatedMatrix::translate(&csr, &choice);
        (Fingerprint::of(&csr), CachedFormat { translated, choice })
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut cache = FormatCache::new(64 << 20);
        let (fp, e) = entry(1, 64);
        assert!(cache.get(&fp).is_none());
        cache.insert(fp, e);
        assert!(cache.get(&fp).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn lru_eviction_order() {
        // Budget sized for two entries; inserting a third evicts the one
        // touched least recently.
        let (fp_a, a) = entry(1, 64);
        let (fp_b, b) = entry(2, 64);
        let (fp_c, c) = entry(3, 64);
        let budget = a.footprint_bytes() + b.footprint_bytes() + c.footprint_bytes() / 2;
        let mut cache = FormatCache::new(budget);
        cache.insert(fp_a, a);
        cache.insert(fp_b, b);
        // Touch A so B becomes the LRU victim.
        assert!(cache.get(&fp_a).is_some());
        cache.insert(fp_c, c);
        assert!(cache.get(&fp_a).is_some(), "recently used entry survived");
        assert!(cache.get(&fp_b).is_none(), "LRU entry evicted");
        assert!(cache.get(&fp_c).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.resident_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversize_entry_is_served_but_not_stored() {
        let (fp, e) = entry(4, 64);
        let mut cache = FormatCache::new(e.footprint_bytes() - 1);
        let arc = cache.insert(fp, e);
        assert!(arc.translated.rows() > 0);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().rejected_oversize, 1);
        assert!(cache.get(&fp).is_none());
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let (fp, e) = entry(5, 32);
        let mut cache = FormatCache::new(0);
        cache.insert(fp, e);
        assert!(cache.get(&fp).is_none());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn duplicate_insert_keeps_the_resident_entry() {
        let (fp, e1) = entry(6, 48);
        let (_, e2) = entry(6, 48);
        let mut cache = FormatCache::new(64 << 20);
        let first = cache.insert(fp, e1);
        let before = cache.resident_bytes();
        let second = cache.insert(fp, e2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.resident_bytes(), before);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn replace_overwrites_the_resident_entry() {
        let (fp, e1) = entry(7, 48);
        let (_, e2) = entry(7, 48);
        let mut cache = FormatCache::new(64 << 20);
        let first = cache.insert(fp, e1);
        let stats_before = cache.stats();
        let second = cache.replace(fp, e2);
        assert!(!Arc::ptr_eq(&first, &second), "replace must hand out the new entry");
        let got = cache.get(&fp).expect("entry stays resident");
        assert!(Arc::ptr_eq(&got, &second));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        // replace is not a lookup: only our explicit get() above moved the counters.
        assert_eq!(s.misses, stats_before.misses);
        assert_eq!(s.hits, stats_before.hits + 1);
        assert!(cache.resident_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn retain_releases_the_dropped_entries_bytes() {
        let (fp_a, a) = entry(8, 48);
        let (fp_b, b) = entry(9, 48);
        let b_bytes = b.footprint_bytes();
        let mut cache = FormatCache::new(64 << 20);
        cache.insert(fp_a, a);
        cache.insert(fp_b, b);
        assert_eq!(cache.retain(|fp| *fp != fp_a), 1);
        assert!(cache.get(&fp_a).is_none());
        assert!(cache.get(&fp_b).is_some());
        let s = cache.stats();
        assert_eq!((s.entries, s.resident_bytes, s.evictions), (1, b_bytes, 0));
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let json = s.to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"hits":3,"misses":1,"evictions":0,"rejected_oversize":0,"entries":0,"#,
                r#""resident_bytes":0,"budget_bytes":0,"hit_rate":0.750000}"#,
            )
        );
        assert!(json.contains("\"hits\":3"));
        assert!(json.contains("\"hit_rate\":0.75"));
    }
}
