//! A/B overhead check for the tracing layer (Criterion).
//!
//! The acceptance bar for `fs-trace` mirrors the sanitizer's: the
//! **disarmed** path (the default) must cost nothing — every span site
//! reduces to one relaxed atomic load, so `spmm-trace-disarmed` must sit
//! within noise of the plain fast-path numbers in `benches/exec_mode.rs`.
//! The `spmm-trace-armed` series quantifies what live histogram + event
//! recording costs when tracing *is* on (on the fast path: one clock
//! pair per row window plus four counter adds per launch).
//! The `span-site-disarmed` series measures the raw per-site cost in
//! isolation — the same quantity the `spmm_cli --trace-ab-json` ci.sh
//! gate bounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flashsparse::{spmm, TcuPrecision, ThreadMapping};
use fs_format::MeBcrs;
use fs_matrix::gen::{rmat, RmatConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::F16;
use fs_trace::{Site, TraceScope};

fn graph(scale: u32) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&rmat::<f32>(scale, 8, RmatConfig::GRAPH500, true, 42))
}

fn bench_trace_ab(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-ab");
    group.sample_size(10);
    for scale in [8u32, 10] {
        let csr = graph(scale);
        let n = 128;
        let b = DenseMatrix::<F16>::from_fn(csr.cols(), n, |r, c| ((r + c) % 7) as f32 * 0.25);
        let me: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), F16::SPEC);

        group.bench_with_input(
            BenchmarkId::new("spmm-trace-disarmed", csr.nnz()),
            &csr.nnz(),
            |bch, _| {
                let _scope = TraceScope::disarmed();
                bch.iter(|| spmm(&me, &b, ThreadMapping::MemoryEfficient))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("spmm-trace-armed", csr.nnz()),
            &csr.nnz(),
            |bch, _| {
                let _scope = TraceScope::armed();
                bch.iter(|| spmm(&me, &b, ThreadMapping::MemoryEfficient));
                assert!(
                    fs_trace::snapshot().site(Site::WindowBatch).hist.count > 0,
                    "armed tracing must have recorded window batches"
                );
            },
        );
    }

    // The raw disarmed span site: one relaxed load and an inert guard.
    group.bench_with_input(BenchmarkId::new("span-site-disarmed", 0), &0, |bch, _| {
        let _scope = TraceScope::disarmed();
        bch.iter(|| fs_trace::span(Site::WindowBatch))
    });
    group.finish();
}

criterion_group!(benches, bench_trace_ab);
criterion_main!(benches);
