//! Counters accumulated by simulated kernels.

use std::ops::{Add, AddAssign};

use fs_trace::export::JsonWriter;

/// Everything a simulated kernel execution counts. Plain data; kernels
/// running in parallel each accumulate their own and merge with `+`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// `mma.sync` invocations.
    pub mma_count: u64,
    /// WMMA (C++ API) invocations.
    // lint: fast-exempt - written only by baseline kernels (tcgnn), which never take the fast path
    pub wmma_count: u64,
    /// Floating-point ops performed on tensor cores (2·m·n·k per MMA).
    pub tcu_flops: u64,
    /// Floating-point ops performed on CUDA cores (2 per FMA).
    // lint: fast-exempt - written only by CUDA-core baselines (cusparse-like), never the fast path
    pub cuda_flops: u64,
    /// 32-byte load transactions issued to global memory.
    pub load_transactions: u64,
    /// 32-byte store transactions issued to global memory.
    pub store_transactions: u64,
    /// Bytes actually transferred by loads (transactions × 32).
    pub bytes_loaded: u64,
    /// Bytes actually transferred by stores.
    pub bytes_stored: u64,
    /// Bytes the kernel *needed* to load (perfect coalescing).
    pub ideal_bytes_loaded: u64,
    /// Bytes the kernel needed to store.
    pub ideal_bytes_stored: u64,
    /// Ideal load bytes attributable to sparse-matrix values.
    pub sparse_value_bytes: u64,
    /// Ideal load bytes attributable to the dense operand.
    pub dense_operand_bytes: u64,
    /// Ideal load bytes attributable to index metadata.
    pub index_bytes: u64,
    /// Sanitizer violations attributed to this kernel execution (zero
    /// unless a [`crate::sanitize`] mode is active *and* the kernel
    /// misbehaved).
    // lint: fast-exempt - only the instrumented simulator can observe violations; fast path skips it
    pub sanitizer_violations: u64,
}

/// The source a warp load serves — lets experiments break the Figure 12
/// data-access cost down by traffic class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Sparse TC-block values.
    SparseValues,
    /// Dense operand tiles.
    DenseOperand,
    /// Column-index / pointer metadata.
    Indices,
}

impl KernelCounters {
    /// Total transactions (loads + stores).
    #[inline]
    pub fn transactions(&self) -> u64 {
        self.load_transactions + self.store_transactions
    }

    /// Total bytes moved over the memory bus.
    #[inline]
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }

    /// Total data access cost in bytes — the metric of the paper's
    /// Figure 12 ("the cost of loading data from the memory hierarchy").
    #[inline]
    pub fn data_access_bytes(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }

    /// Fraction of transferred load bytes that were useful (1.0 = perfectly
    /// coalesced). A kernel that loaded nothing is vacuously perfect.
    pub fn load_efficiency(&self) -> f64 {
        if self.bytes_loaded == 0 {
            1.0
        } else {
            self.ideal_bytes_loaded as f64 / self.bytes_loaded as f64
        }
    }

    /// Fraction of transferred store bytes that were useful — the store
    /// counterpart of [`Self::load_efficiency`], with the same guard: a
    /// kernel that stored nothing is vacuously perfect rather than NaN.
    pub fn store_efficiency(&self) -> f64 {
        if self.bytes_stored == 0 {
            1.0
        } else {
            self.ideal_bytes_stored as f64 / self.bytes_stored as f64
        }
    }

    /// Combined load+store efficiency, guarded like the per-direction
    /// accessors.
    pub fn memory_efficiency(&self) -> f64 {
        let moved = self.bytes_moved();
        if moved == 0 {
            1.0
        } else {
            (self.ideal_bytes_loaded + self.ideal_bytes_stored) as f64 / moved as f64
        }
    }

    /// Total floating-point operations executed (either engine).
    #[inline]
    pub fn total_flops(&self) -> u64 {
        self.tcu_flops + self.cuda_flops
    }

    /// The canonical JSON rendering of a counter set: every raw field plus
    /// the derived efficiency ratios, as one object on one line. This is
    /// the single serializer shared by `spmm_cli --json`, the `figures`
    /// machine-readable output, and the `fs-serve` metrics endpoint — so
    /// the three agree on field names.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (name, count) in [
            ("mma_count", self.mma_count),
            ("wmma_count", self.wmma_count),
            ("tcu_flops", self.tcu_flops),
            ("cuda_flops", self.cuda_flops),
            ("load_transactions", self.load_transactions),
            ("store_transactions", self.store_transactions),
            ("bytes_loaded", self.bytes_loaded),
            ("bytes_stored", self.bytes_stored),
            ("ideal_bytes_loaded", self.ideal_bytes_loaded),
            ("ideal_bytes_stored", self.ideal_bytes_stored),
            ("sparse_value_bytes", self.sparse_value_bytes),
            ("dense_operand_bytes", self.dense_operand_bytes),
            ("index_bytes", self.index_bytes),
            ("sanitizer_violations", self.sanitizer_violations),
        ] {
            w.field_u64(name, count);
        }
        for (name, ratio) in [
            ("load_efficiency", self.load_efficiency()),
            ("store_efficiency", self.store_efficiency()),
            ("memory_efficiency", self.memory_efficiency()),
        ] {
            w.key(name).value_raw(&format!("{ratio:.6}"));
        }
        w.end_object();
        w.finish()
    }
}

impl Add for KernelCounters {
    type Output = KernelCounters;
    fn add(self, rhs: KernelCounters) -> KernelCounters {
        KernelCounters {
            mma_count: self.mma_count + rhs.mma_count,
            wmma_count: self.wmma_count + rhs.wmma_count,
            tcu_flops: self.tcu_flops + rhs.tcu_flops,
            cuda_flops: self.cuda_flops + rhs.cuda_flops,
            load_transactions: self.load_transactions + rhs.load_transactions,
            store_transactions: self.store_transactions + rhs.store_transactions,
            bytes_loaded: self.bytes_loaded + rhs.bytes_loaded,
            bytes_stored: self.bytes_stored + rhs.bytes_stored,
            ideal_bytes_loaded: self.ideal_bytes_loaded + rhs.ideal_bytes_loaded,
            ideal_bytes_stored: self.ideal_bytes_stored + rhs.ideal_bytes_stored,
            sparse_value_bytes: self.sparse_value_bytes + rhs.sparse_value_bytes,
            dense_operand_bytes: self.dense_operand_bytes + rhs.dense_operand_bytes,
            index_bytes: self.index_bytes + rhs.index_bytes,
            sanitizer_violations: self.sanitizer_violations + rhs.sanitizer_violations,
        }
    }
}

impl AddAssign for KernelCounters {
    fn add_assign(&mut self, rhs: KernelCounters) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for KernelCounters {
    fn sum<I: Iterator<Item = KernelCounters>>(iter: I) -> KernelCounters {
        iter.fold(KernelCounters::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge() {
        let a = KernelCounters { mma_count: 2, bytes_loaded: 64, ..Default::default() };
        let b = KernelCounters { mma_count: 3, bytes_loaded: 32, ..Default::default() };
        let c = a + b;
        assert_eq!(c.mma_count, 5);
        assert_eq!(c.bytes_loaded, 96);
        let s: KernelCounters = [a, b].into_iter().sum();
        assert_eq!(s, c);
    }

    #[test]
    fn efficiency() {
        let k = KernelCounters {
            bytes_loaded: 128,
            ideal_bytes_loaded: 64,
            bytes_stored: 64,
            ideal_bytes_stored: 48,
            ..Default::default()
        };
        assert!((k.load_efficiency() - 0.5).abs() < 1e-12);
        assert!((k.store_efficiency() - 0.75).abs() < 1e-12);
        assert!((k.memory_efficiency() - 112.0 / 192.0).abs() < 1e-12);
    }

    #[test]
    fn zero_transaction_kernel_has_finite_unit_ratios() {
        // A kernel that never touched memory (e.g. an empty matrix) must
        // report vacuously perfect ratios, not NaN.
        let k = KernelCounters::default();
        assert_eq!(k.load_efficiency(), 1.0);
        assert_eq!(k.store_efficiency(), 1.0);
        assert_eq!(k.memory_efficiency(), 1.0);
        assert!(k.load_efficiency().is_finite());
        assert!(k.store_efficiency().is_finite());
        assert!(k.memory_efficiency().is_finite());
    }

    #[test]
    fn sanitizer_violations_merge() {
        let a = KernelCounters { sanitizer_violations: 2, ..Default::default() };
        let b = KernelCounters { sanitizer_violations: 5, ..Default::default() };
        assert_eq!((a + b).sanitizer_violations, 7);
    }

    #[test]
    fn json_round_numbers() {
        let k = KernelCounters {
            mma_count: 7,
            bytes_loaded: 128,
            ideal_bytes_loaded: 64,
            sanitizer_violations: 1,
            ..Default::default()
        };
        let j = k.to_json();
        assert_eq!(
            j,
            concat!(
                r#"{"mma_count":7,"wmma_count":0,"tcu_flops":0,"cuda_flops":0,"#,
                r#""load_transactions":0,"store_transactions":0,"bytes_loaded":128,"#,
                r#""bytes_stored":0,"ideal_bytes_loaded":64,"ideal_bytes_stored":0,"#,
                r#""sparse_value_bytes":0,"dense_operand_bytes":0,"index_bytes":0,"#,
                r#""sanitizer_violations":1,"load_efficiency":0.500000,"#,
                r#""store_efficiency":1.000000,"memory_efficiency":0.500000}"#,
            )
        );
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"mma_count\":7"));
        assert!(j.contains("\"bytes_loaded\":128"));
        assert!(j.contains("\"sanitizer_violations\":1"));
        assert!(j.contains("\"load_efficiency\":0.500000"));
        // Exactly one object, no nesting, no trailing comma.
        assert_eq!(j.matches('{').count(), 1);
        assert!(!j.contains(",}"));
    }

    #[test]
    fn totals() {
        let k = KernelCounters {
            load_transactions: 3,
            store_transactions: 2,
            bytes_loaded: 96,
            bytes_stored: 64,
            tcu_flops: 100,
            cuda_flops: 50,
            ..Default::default()
        };
        assert_eq!(k.transactions(), 5);
        assert_eq!(k.bytes_moved(), 160);
        assert_eq!(k.total_flops(), 150);
    }
}
