//! Precision-dispatched sparse operations for GNN training.
//!
//! Models hold their parameters and activations in f32 (the master
//! precision, as mixed-precision training does); every *sparse* operation
//! routes through the backend under test — FlashSparse FP16, FlashSparse
//! TF32, or the CUDA-core FP32 reference — with operands cast on entry
//! and results widened on exit, exactly the paper's integration of its
//! kernels into PyTorch.

use flashsparse::{sddmm as flash_sddmm, spmm_f32 as flash_spmm, TcuPrecision, ThreadMapping};
use fs_baselines::cuda;
use fs_format::MeBcrs;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::{GpuSpec, KernelCounters};
use parking_lot::Mutex;

/// Which kernel stack executes the sparse operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnBackend {
    /// FlashSparse with FP16 MMA (`m16n8k8`).
    FlashFp16,
    /// FlashSparse with TF32 MMA (`m16n8k4`).
    FlashTf32,
    /// DGL-like CUDA-core FP32 path (cuSPARSE-style row-parallel kernels).
    CudaFp32,
    /// PyG-like CUDA-core FP32 path (edge-wise parallelization:
    /// neighbor-group SpMM, edge-parallel SDDMM).
    CudaFp32Edge,
    /// TC-GNN: WMMA 16×1 tensor-core kernels with SGT position checks.
    TcGnnTf32,
}

impl GnnBackend {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            GnnBackend::FlashFp16 => "FlashSparse-FP16",
            GnnBackend::FlashTf32 => "FlashSparse-TF32",
            GnnBackend::CudaFp32 => "DGL-like-FP32",
            GnnBackend::CudaFp32Edge => "PyG-like-FP32",
            GnnBackend::TcGnnTf32 => "TC-GNN-TF32",
        }
    }
}

/// Sparse-operator dispatcher; accumulates counters and simulated kernel
/// time across all invocations (reset with [`SparseOps::take_stats`]).
pub struct SparseOps {
    backend: GnnBackend,
    gpu: GpuSpec,
    stats: Mutex<(KernelCounters, f64)>,
}

impl SparseOps {
    /// A dispatcher for `backend`, timing against `gpu`.
    pub fn new(backend: GnnBackend, gpu: GpuSpec) -> Self {
        SparseOps { backend, gpu, stats: Mutex::new((KernelCounters::default(), 0.0)) }
    }

    /// The active backend.
    pub fn backend(&self) -> GnnBackend {
        self.backend
    }

    /// Drain the accumulated (counters, simulated seconds).
    pub fn take_stats(&self) -> (KernelCounters, f64) {
        std::mem::take(&mut *self.stats.lock())
    }

    fn record(&self, counters: KernelCounters, time: f64) {
        let mut s = self.stats.lock();
        s.0 += counters;
        s.1 += time;
    }

    /// `C = adj × B` at the backend's precision (f32 in/out).
    pub fn spmm(&self, adj: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        match self.backend {
            GnnBackend::FlashFp16 => self.spmm_flash::<F16>(adj, b),
            GnnBackend::FlashTf32 => self.spmm_flash::<Tf32>(adj, b),
            GnnBackend::CudaFp32 => {
                let (out, run) = cuda::cusparse_like::spmm(adj, b);
                self.record(run.counters, run.simulated_time(self.gpu));
                out
            }
            GnnBackend::CudaFp32Edge => {
                let (out, run) = cuda::gnnadvisor::spmm(adj, b);
                self.record(run.counters, run.simulated_time(self.gpu));
                out
            }
            GnnBackend::TcGnnTf32 => {
                let a16 = MeBcrs::<Tf32>::from_csr_cast(adj, fs_baselines::tcu16::SPEC16);
                let (out, run) = fs_baselines::tcu16::tcgnn::spmm_tcgnn(&a16, &b.cast());
                self.record(run.counters, run.simulated_time(self.gpu));
                out.cast()
            }
        }
    }

    fn spmm_flash<S: TcuPrecision>(
        &self,
        adj: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> DenseMatrix<f32> {
        let a_s: MeBcrs<S> = MeBcrs::from_csr_cast(adj, S::SPEC);
        let (out, counters) = flash_spmm(&a_s, b, ThreadMapping::MemoryEfficient);
        let run = fs_baselines::BaselineRun {
            counters,
            imbalance: fs_baselines::wave::tcu_window_imbalance(&a_s, b.cols().div_ceil(16)),
            class: S::compute_class(),
        };
        self.record(counters, run.simulated_time(self.gpu));
        out
    }

    /// `C = (a × bᵀ) ⊙ mask` at the backend's precision (f32 in/out, CSR
    /// with `mask`'s pattern).
    pub fn sddmm(
        &self,
        mask: &CsrMatrix<f32>,
        a: &DenseMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> CsrMatrix<f32> {
        match self.backend {
            GnnBackend::FlashFp16 => self.sddmm_flash::<F16>(mask, a, b),
            GnnBackend::FlashTf32 => self.sddmm_flash::<Tf32>(mask, a, b),
            GnnBackend::CudaFp32 => {
                let (out, run) = cuda::rode::sddmm(mask, a, b);
                self.record(run.counters, run.simulated_time(self.gpu));
                out
            }
            GnnBackend::CudaFp32Edge => {
                let (out, run) = cuda::sputnik::sddmm(mask, a, b);
                self.record(run.counters, run.simulated_time(self.gpu));
                out
            }
            GnnBackend::TcGnnTf32 => {
                let m16 = MeBcrs::<Tf32>::from_csr_cast(mask, fs_baselines::tcu16::SPEC16);
                let (out, run) =
                    fs_baselines::tcu16::tcgnn::sddmm_tcgnn(&m16, &a.cast(), &b.cast());
                self.record(run.counters, run.simulated_time(self.gpu));
                out.gather_f32(mask)
            }
        }
    }

    fn sddmm_flash<S: TcuPrecision>(
        &self,
        mask: &CsrMatrix<f32>,
        a: &DenseMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> CsrMatrix<f32> {
        let mask_s: MeBcrs<S> = MeBcrs::from_csr_cast(mask, S::SPEC);
        let (out, counters) = flash_sddmm(&mask_s, &a.cast(), &b.cast());
        let run = fs_baselines::BaselineRun {
            counters,
            imbalance: fs_baselines::wave::tcu_window_imbalance(&mask_s, 1),
            class: S::compute_class(),
        };
        self.record(counters, run.simulated_time(self.gpu));
        // Back to CSR f32 preserving the mask's full pattern (computed
        // zeros included).
        out.gather_f32(mask)
    }
}

/// Symmetrically normalized adjacency with self loops:
/// `Â = D^{-1/2} (A + I) D^{-1/2}` — the GCN propagation matrix.
pub fn normalize_adjacency(adj: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let n = adj.rows();
    assert_eq!(n, adj.cols(), "adjacency must be square");
    let mut coo = fs_matrix::CooMatrix::<f32>::new(n, n);
    for (r, c, v) in adj.iter() {
        if v != 0.0 {
            coo.push(r, c, 1.0);
        }
    }
    for i in 0..n {
        coo.push(i, i, 1.0);
    }
    let a_plus_i = CsrMatrix::from_coo(&coo.dedup());
    let deg: Vec<f32> = (0..n).map(|r| a_plus_i.row_len(r) as f32).collect();
    let mut out = a_plus_i.clone();
    let mut idx = 0usize;
    for r in 0..n {
        let cols: Vec<u32> = a_plus_i.row_cols(r).to_vec();
        for c in cols {
            out.values_mut()[idx] = 1.0 / (deg[r].sqrt() * deg[c as usize].sqrt());
            idx += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::random_uniform;

    fn test_graph() -> CsrMatrix<f32> {
        let coo = random_uniform::<f32>(48, 48, 300, 1);
        // Symmetrize.
        let mut sym = fs_matrix::CooMatrix::<f32>::new(48, 48);
        for &(r, c, v) in coo.entries() {
            if r != c {
                sym.push(r as usize, c as usize, v.abs() + 0.1);
                sym.push(c as usize, r as usize, v.abs() + 0.1);
            }
        }
        CsrMatrix::from_coo(&sym.dedup())
    }

    #[test]
    fn backends_agree_within_precision() {
        let adj = normalize_adjacency(&test_graph());
        let b = DenseMatrix::<f32>::from_fn(48, 16, |r, c| ((r + c) % 7) as f32 * 0.1);
        let f32_ops = SparseOps::new(GnnBackend::CudaFp32, GpuSpec::RTX4090);
        let fp16_ops = SparseOps::new(GnnBackend::FlashFp16, GpuSpec::RTX4090);
        let tf32_ops = SparseOps::new(GnnBackend::FlashTf32, GpuSpec::RTX4090);
        let gold = f32_ops.spmm(&adj, &b);
        let h = fp16_ops.spmm(&adj, &b);
        let t = tf32_ops.spmm(&adj, &b);
        assert!(gold.rel_frob_diff(&h) < 3e-3, "fp16 {}", gold.rel_frob_diff(&h));
        assert!(gold.rel_frob_diff(&t) < 1e-3, "tf32 {}", gold.rel_frob_diff(&t));
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let adj = normalize_adjacency(&test_graph());
        let b = DenseMatrix::<f32>::zeros(48, 8);
        let ops = SparseOps::new(GnnBackend::FlashFp16, GpuSpec::H100_PCIE);
        ops.spmm(&adj, &b);
        ops.spmm(&adj, &b);
        let (counters, time) = ops.take_stats();
        assert!(counters.mma_count > 0);
        assert!(time > 0.0);
        let (again, t2) = ops.take_stats();
        assert_eq!(again.mma_count, 0);
        assert_eq!(t2, 0.0);
    }

    #[test]
    fn sddmm_pattern_preserved_across_backends() {
        let mask = test_graph().with_unit_values();
        let a = DenseMatrix::<f32>::from_fn(48, 8, |r, c| ((r * 3 + c) % 5) as f32 * 0.2);
        let b = DenseMatrix::<f32>::from_fn(48, 8, |r, c| ((r + 2 * c) % 9) as f32 * 0.1);
        let gold = SparseOps::new(GnnBackend::CudaFp32, GpuSpec::RTX4090).sddmm(&mask, &a, &b);
        let fp16 = SparseOps::new(GnnBackend::FlashFp16, GpuSpec::RTX4090).sddmm(&mask, &a, &b);
        assert_eq!(gold.col_idx(), fp16.col_idx());
        assert_eq!(gold.row_ptr(), fp16.row_ptr());
        for (x, y) in gold.values().iter().zip(fp16.values()) {
            assert!((x - y).abs() < 0.05, "{x} vs {y}");
        }
    }

    #[test]
    fn sddmm_read_back_keeps_computed_zeros() {
        // Zero rows of A make whole rows of the product exactly zero, and
        // the negative scales turn some of those into `-0.0`.
        let mut mask = test_graph();
        mask.values_mut().iter_mut().step_by(3).for_each(|v| *v = -*v);
        let a = DenseMatrix::<f32>::from_fn(48, 8, |r, c| {
            if r % 4 == 0 {
                0.0
            } else {
                ((r * 3 + c) % 5) as f32 * 0.2
            }
        });
        let b = DenseMatrix::<f32>::from_fn(48, 8, |r, c| ((r + 2 * c) % 9) as f32 * 0.1);

        /// The read-back this replaced: expand to dense, pick the pattern.
        fn via_dense<S: fs_precision::Scalar>(out: &MeBcrs<S>, mask: &CsrMatrix<f32>) -> Vec<u32> {
            let dense = out.to_dense();
            mask.iter().map(|(r, c, _)| dense.get_f32(r, c).to_bits()).collect()
        }
        fn flash<S: TcuPrecision>(
            mask: &CsrMatrix<f32>,
            a: &DenseMatrix<f32>,
            b: &DenseMatrix<f32>,
        ) -> Vec<u32> {
            let mask_s = MeBcrs::<S>::from_csr(&mask.cast(), S::SPEC);
            let (out, _) = flash_sddmm(&mask_s, &a.cast(), &b.cast());
            assert!(out.to_csr().nnz() < mask.nnz(), "the product must hold exact zeros");
            via_dense(&out, mask)
        }
        let m16 = MeBcrs::from_csr(&mask.cast::<Tf32>(), fs_baselines::tcu16::SPEC16);
        let (out16, _) = fs_baselines::tcu16::tcgnn::sddmm_tcgnn(&m16, &a.cast(), &b.cast());
        for (backend, want) in [
            (GnnBackend::FlashFp16, flash::<F16>(&mask, &a, &b)),
            (GnnBackend::FlashTf32, flash::<Tf32>(&mask, &a, &b)),
            (GnnBackend::TcGnnTf32, via_dense(&out16, &mask)),
        ] {
            let got = SparseOps::new(backend, GpuSpec::RTX4090).sddmm(&mask, &a, &b);
            assert_eq!((got.row_ptr(), got.col_idx()), (mask.row_ptr(), mask.col_idx()));
            let got: Vec<u32> = got.values().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{backend:?}");
            assert!(got.contains(&0), "{backend:?} keeps its zeros");
        }
    }

    #[test]
    fn normalized_adjacency_values() {
        // Path graph 0–1–2: degrees (with self loops) are 2, 3, 2.
        let mut coo = fs_matrix::CooMatrix::<f32>::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 1, 1.0);
        let adj = normalize_adjacency(&CsrMatrix::from_coo(&coo));
        let d = adj.to_dense();
        assert!((d.get(0, 0) - 0.5).abs() < 1e-6, "1/√(2·2)");
        assert!((d.get(0, 1) - 1.0 / 6.0f32.sqrt()).abs() < 1e-6, "1/√(2·3)");
        assert!((d.get(1, 1) - 1.0 / 3.0).abs() < 1e-6, "1/√(3·3)");
        assert_eq!(d.get(0, 2), 0.0);
        // Symmetric, self loops present.
        let g = normalize_adjacency(&test_graph());
        let gd = g.to_dense();
        for r in 0..48 {
            assert!(g.row_cols(r).contains(&(r as u32)), "self loop at {r}");
            for c in 0..48 {
                assert!((gd.get(r, c) - gd.get(c, r)).abs() < 1e-6);
            }
        }
    }
}
