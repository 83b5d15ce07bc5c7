//! Pipelined execution wall-clock: the overlapped cold path (translate
//! streaming in slabs, SpMM chasing it) against the monolithic
//! translate-then-execute it replaces, and the work-stealing window
//! scheduler against sequential execution on a pre-translated matrix.
//!
//! The serving-level cold-latency numbers (and the ≥1.5× CI gate) come
//! from `pipeline_bench` writing BENCH_pipeline.json; this bench tracks
//! the kernel-level primitives under Criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use flashsparse::{
    spmm_overlapped, spmm_with, ExecPlan, SchedMode, ThreadMapping, TranslatedMatrix, TuneChoice,
};
use fs_matrix::gen::{rmat, RmatConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::F16;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let n = 32;

    let csr = CsrMatrix::from_coo(&rmat::<f32>(11, 8, RmatConfig::GRAPH500, true, 7));
    let b = DenseMatrix::from_f32_slice(
        csr.cols(),
        n,
        &(0..csr.cols() * n).map(|i| (i % 7) as f32 * 0.25).collect::<Vec<f32>>(),
    );
    let choice = TuneChoice::FALLBACK;

    // Cold request, classic shape: translate the whole matrix, then run.
    group.bench_function("cold/translate-then-execute", |bch| {
        bch.iter(|| {
            let translated = TranslatedMatrix::translate(&csr, &choice);
            translated.spmm_f32(&b, choice.mapping)
        })
    });
    // Cold request, pipelined: SpMM chases the slab-streamed translation.
    group.bench_function("cold/overlapped", |bch| {
        bch.iter(|| spmm_overlapped(&csr, &b, &choice, SchedMode::Sequential))
    });

    // Window scheduler on a pre-translated matrix (the warm path).
    let fs = flashsparse::FlashSparseMatrix::from_csr(&csr.cast::<F16>());
    let me = fs.format();
    let bf = b.cast::<F16>();
    for (name, sched) in [
        ("sched/sequential", SchedMode::Sequential),
        ("sched/steal-4", SchedMode::WorkStealing { workers: 4 }),
    ] {
        let plan = ExecPlan { sched, ..ExecPlan::auto() };
        group.bench_function(name, |bch| {
            bch.iter(|| spmm_with(me, &bf, ThreadMapping::MemoryEfficient, plan))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
