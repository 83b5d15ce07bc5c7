//! The structure, width and size sweep (the axes of the paper's Figure 11):
//! the fast path against the CSR row-parallel baseline on one matrix per
//! generator family at about 1e5 nonzeros, at three dense widths, and at
//! 1e6 nonzeros. Printed by `all`; too long to ride along in every run.

use std::time::Instant;

use flashsparse::{auto_tune, TranslatedMatrix};
use fs_baselines::cuda::cusparse_like;
use fs_matrix::gen::{banded, block_sparse, random_uniform};
use fs_matrix::{CsrMatrix, DenseMatrix};

use crate::layers::{simulate, Simulated};
use crate::stats::{median, sub_seed};
use crate::workloads::{dense, rmat_csr, GPU};

/// Timed iterations per point; the reported time is their median.
const ITERATIONS: usize = 3;

struct Point {
    fast_ms: f64,
    csr_ms: f64,
    mma: u64,
    sim: Simulated,
}

fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..ITERATIONS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn point(csr: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> Point {
    let choice = auto_tune(csr, b.cols(), GPU);
    let translated = TranslatedMatrix::translate(csr, &choice);
    let (_, k) = translated.spmm_f32(b, choice.mapping);
    Point {
        fast_ms: time_ms(|| translated.spmm_f32(b, choice.mapping)),
        csr_ms: time_ms(|| cusparse_like::spmm(csr, b)),
        mma: k.mma_count,
        sim: simulate(csr, b, &choice, &translated, k),
    }
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn run(seed: u64) {
    let dim = 8192;
    let families: [(&str, CsrMatrix<f32>); 4] = [
        ("rmat", rmat_csr(13, sub_seed(seed, 0))),
        (
            "uniform",
            CsrMatrix::from_coo(&random_uniform::<f32>(dim, dim, 110_000, sub_seed(seed, 1))),
        ),
        (
            "banded",
            CsrMatrix::from_coo(&banded::<f32>(
                dim,
                &[-24, -16, -8, -3, -2, -1, 0, 1, 2, 3, 8, 16, 24],
                1.0,
                sub_seed(seed, 2),
            )),
        ),
        (
            "block",
            CsrMatrix::from_coo(&block_sparse::<f32>(
                dim,
                dim,
                8,
                8,
                0.002,
                0.8,
                sub_seed(seed, 3),
            )),
        ),
    ];
    let b128 = dense(dim, 128, sub_seed(seed, 4));
    let mut speedups = (Vec::new(), Vec::new());
    for (family, csr) in &families {
        let p = point(csr, &b128);
        println!("metric sweep.{family}.nnz {} count", csr.nnz());
        println!("metric sweep.{family}.fast_ms {} ms", p.fast_ms);
        println!("metric sweep.{family}.csr_ms {} ms", p.csr_ms);
        println!("metric sweep.{family}.fill_ratio {} ratio", p.sim.fill_ratio);
        println!("metric sweep.{family}.mma {} count", p.mma);
        println!("metric sweep.{family}.sim_speedup_vs_dtc {} ratio", p.sim.vs_dtc);
        println!("metric sweep.{family}.sim_speedup_vs_rode {} ratio", p.sim.vs_rode);
        speedups.0.push(p.sim.vs_dtc);
        speedups.1.push(p.sim.vs_rode);
    }
    // The paper reports geomeans of 5.5x and 3.22x over its 515 matrices.
    println!("metric baselines.sim_speedup_vs_dtc {} ratio", geomean(&speedups.0));
    println!("metric baselines.sim_speedup_vs_rode {} ratio", geomean(&speedups.1));

    let rmat = &families[0].1;
    for n in [32, 256] {
        let p = point(rmat, &dense(dim, n, sub_seed(seed, 5)));
        println!("metric sweep.n{n}.fast_ms {} ms", p.fast_ms);
        println!("metric sweep.n{n}.csr_ms {} ms", p.csr_ms);
    }
    let big = rmat_csr(16, sub_seed(seed, 6));
    let p = point(&big, &dense(big.cols(), 128, sub_seed(seed, 7)));
    println!("metric sweep.nnz1e6.nnz {} count", big.nnz());
    println!("metric sweep.nnz1e6.fast_ms {} ms", p.fast_ms);
    println!("metric sweep.nnz1e6.csr_ms {} ms", p.csr_ms);
}
