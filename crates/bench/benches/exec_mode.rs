//! Fast path vs. simulator wall-clock (Criterion).
//!
//! Both modes produce bit-identical outputs and counters (see the
//! `exec_mode_props` suite); this benchmark tracks how much host time
//! the fast path saves by skipping fragment materialization. The CI
//! baseline lives in `BENCH_spmm.json` (written by
//! `spmm_cli --bench-json`); this harness is for interactive digging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flashsparse::{spmm_with, ExecPlan, TcuPrecision, ThreadMapping};
use fs_format::MeBcrs;
use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::ExecMode;

fn bench_exec_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_mode");
    group.sample_size(10);
    let datasets: Vec<(&str, CsrMatrix<f32>)> = vec![
        ("rmat-s8", CsrMatrix::from_coo(&rmat::<f32>(8, 8, RmatConfig::GRAPH500, true, 42))),
        ("uniform-512", CsrMatrix::from_coo(&random_uniform::<f32>(512, 512, 8192, 42))),
    ];
    let n = 128;
    for (name, csr) in &datasets {
        let me16: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), F16::SPEC);
        let b16 = DenseMatrix::<F16>::from_fn(csr.cols(), n, |r, c| ((r + c) % 7) as f32 * 0.25);
        let me32: MeBcrs<Tf32> = MeBcrs::from_csr(&csr.cast(), Tf32::SPEC);
        let b32 = DenseMatrix::<Tf32>::from_fn(csr.cols(), n, |r, c| ((r + c) % 7) as f32 * 0.25);
        for mode in [ExecMode::Fast, ExecMode::Simulate] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-fp16"), mode.name()),
                &mode,
                |bch, &mode| {
                    let plan = ExecPlan { mode, ..ExecPlan::auto() };
                    bch.iter(|| spmm_with(&me16, &b16, ThreadMapping::MemoryEfficient, plan))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-tf32"), mode.name()),
                &mode,
                |bch, &mode| {
                    let plan = ExecPlan { mode, ..ExecPlan::auto() };
                    bch.iter(|| spmm_with(&me32, &b32, ThreadMapping::MemoryEfficient, plan))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_exec_mode);
criterion_main!(benches);
