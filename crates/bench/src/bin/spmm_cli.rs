//! Analyze a sparse matrix with every SpMM/SDDMM implementation.
//!
//! ```text
//! spmm_cli --mtx path/to/matrix.mtx [--n 128] [--sddmm-k 32]
//! spmm_cli --rmat 10x8              # synthetic 2^10-node power-law graph
//! spmm_cli --uniform 1024x1024x8192 # synthetic uniform matrix
//! ```
//!
//! Prints the sparsity pattern, format statistics, the auto-tuner's
//! choice, and a simulated-performance comparison on both paper GPUs.
//!
//! Tracing: `--trace` arms the fs-trace recorder for the analysis run
//! and prints the Prometheus text dump (per-site span quantiles plus
//! attached counters) at the end; `--trace-out FILE` also writes the
//! chrome://tracing timeline JSON. `--trace-ab-json FILE` measures the
//! cost of the tracing instrumentation itself — the disarmed per-span
//! overhead and an armed/disarmed A/B on the fast path — and writes the
//! numbers as JSON for the CI zero-cost gate.

use std::time::Instant;

use flashsparse::{
    auto_tune, spmm_with, ExecPlan, TcuPrecision, ThreadMapping, TranslatedMatrix, TuneChoice,
};
use fs_bench::algos::{measure_sddmm_all, measure_spmm_all};
use fs_format::{vector_stats, MeBcrs, TcFormatSpec};
use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
use fs_matrix::io::read_mtx_file;
use fs_matrix::render::render_sparsity;
use fs_matrix::stats::sparsity_stats;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::{ExecMode, GpuSpec};

fn usage() -> ! {
    eprintln!(
        "usage: spmm_cli (--mtx FILE | --rmat SCALExEF | --uniform RxCxNNZ) [--n N] [--sddmm-k K] [--json]\n\
         \x20               [--trace] [--trace-out FILE]\n\
         \x20      spmm_cli --bench-json FILE     # write the exec-mode wall-clock baseline\n\
         \x20      spmm_cli --trace-ab-json FILE  # write the tracing-overhead A/B numbers"
    );
    std::process::exit(2);
}

/// What a plain `spmm` call runs, with the engine pinned to `mode`.
fn pinned(mode: ExecMode) -> ExecPlan {
    ExecPlan { mode, ..ExecPlan::auto() }
}

/// Median wall-clock seconds of `iters` runs of `f` (one warm-up run).
fn median_secs<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    median(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct BenchRow {
    dataset: &'static str,
    precision: &'static str,
    nnz: usize,
    fast_secs: f64,
    simulate_secs: f64,
    gflops_equiv_fast: f64,
    gflops_equiv_simulate: f64,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        self.simulate_secs / self.fast_secs
    }
}

/// The fast path against the CSR row-parallel CUDA-core baseline on the
/// same host and inputs — ROADMAP item 2's yardstick. One served-shape
/// launch: R-MAT scale 12 (edge factor 8, what `fs-perf`'s `spmm_warm`
/// runs), N = 128, f32 in and out through the paper's headline variant.
/// Returns `(nnz, fast median secs, csr median secs)`.
fn fast_vs_csr(iters: usize, n: usize) -> (usize, f64, f64) {
    let csr = CsrMatrix::from_coo(&rmat::<f32>(12, 8, RmatConfig::GRAPH500, true, 42));
    let b = DenseMatrix::<f32>::from_fn(csr.cols(), n, |r, c| ((r * 7 + c) % 29) as f32 * 0.11);
    let choice = TuneChoice::FALLBACK;
    let translated = TranslatedMatrix::translate(&csr, &choice);
    // Alternate the two so both see the same cache and host state.
    let mut fast = Vec::with_capacity(iters);
    let mut baseline = Vec::with_capacity(iters);
    for rep in 0..=iters {
        let t = Instant::now();
        std::hint::black_box(translated.spmm_f32(&b, choice.mapping));
        let fast_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(fs_baselines::cuda::cusparse_like::spmm(&csr, &b));
        let baseline_secs = t.elapsed().as_secs_f64();
        if rep > 0 {
            // rep 0 is the warm-up
            fast.push(fast_secs);
            baseline.push(baseline_secs);
        }
    }
    (csr.nnz(), median(fast), median(baseline))
}

/// Time both execution modes on a fixed synthetic suite and write the
/// per-(dataset, precision, mode) medians as JSON. The "GFLOP-equiv"
/// figure charges each run the useful work `2 * nnz * N` regardless of
/// tile padding, so the two modes are directly comparable. A second
/// section times the fast path against the CSR baseline
/// ([`fast_vs_csr`]).
fn run_bench_json(path: &str) {
    const ITERS: usize = 5;
    let n = 128usize;
    let datasets: [(&str, CsrMatrix<f32>); 2] = [
        ("rmat-s8", CsrMatrix::from_coo(&rmat::<f32>(8, 8, RmatConfig::GRAPH500, true, 42))),
        ("uniform-512", CsrMatrix::from_coo(&random_uniform::<f32>(512, 512, 8192, 42))),
    ];
    let mut rows: Vec<BenchRow> = Vec::new();
    for (name, csr) in &datasets {
        let flops = 2.0 * csr.nnz() as f64 * n as f64;
        let b16 = DenseMatrix::<F16>::from_fn(csr.cols(), n, |r, c| ((r + c) % 7) as f32 * 0.25);
        let b32 = DenseMatrix::<Tf32>::from_fn(csr.cols(), n, |r, c| ((r + c) % 7) as f32 * 0.25);
        let mut push = |precision: &'static str, fast_secs: f64, simulate_secs: f64| {
            rows.push(BenchRow {
                dataset: name,
                precision,
                nnz: csr.nnz(),
                fast_secs,
                simulate_secs,
                gflops_equiv_fast: flops / fast_secs / 1e9,
                gflops_equiv_simulate: flops / simulate_secs / 1e9,
            });
        };
        let me16: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), F16::SPEC);
        push(
            "fp16",
            median_secs(ITERS, || {
                spmm_with(&me16, &b16, ThreadMapping::MemoryEfficient, pinned(ExecMode::Fast));
            }),
            median_secs(ITERS, || {
                spmm_with(&me16, &b16, ThreadMapping::MemoryEfficient, pinned(ExecMode::Simulate));
            }),
        );
        let me32: MeBcrs<Tf32> = MeBcrs::from_csr(&csr.cast(), Tf32::SPEC);
        push(
            "tf32",
            median_secs(ITERS, || {
                spmm_with(&me32, &b32, ThreadMapping::MemoryEfficient, pinned(ExecMode::Fast));
            }),
            median_secs(ITERS, || {
                spmm_with(&me32, &b32, ThreadMapping::MemoryEfficient, pinned(ExecMode::Simulate));
            }),
        );
        let mek16: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), TcFormatSpec::FLASH_FP16_K16);
        push(
            "fp16-k16",
            median_secs(ITERS, || {
                spmm_with(&mek16, &b16, ThreadMapping::MemoryEfficient, pinned(ExecMode::Fast));
            }),
            median_secs(ITERS, || {
                spmm_with(&mek16, &b16, ThreadMapping::MemoryEfficient, pinned(ExecMode::Simulate));
            }),
        );
    }

    const CSR_ITERS: usize = 9;
    let (csr_nnz, csr_fast_secs, csr_secs) = fast_vs_csr(CSR_ITERS, n);
    let fast_over_csr = csr_fast_secs / csr_secs;

    let min_speedup = rows.iter().map(BenchRow::speedup).fold(f64::INFINITY, f64::min);
    let mut w = fs_trace::export::JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "spmm_exec_mode");
    w.field_u64("n", n as u64);
    w.field_u64("iters", ITERS as u64);
    w.key("results").begin_array();
    for r in &rows {
        w.begin_object();
        w.field_str("dataset", r.dataset);
        w.field_str("precision", r.precision);
        w.field_u64("nnz", r.nnz as u64);
        w.field_f64("fast_median_secs", r.fast_secs);
        w.field_f64("simulate_median_secs", r.simulate_secs);
        w.field_f64("gflops_equiv_fast", r.gflops_equiv_fast);
        w.field_f64("gflops_equiv_simulate", r.gflops_equiv_simulate);
        w.field_f64("speedup", r.speedup());
        w.end_object();
    }
    w.end_array();
    w.field_f64("min_speedup", min_speedup);
    w.key("vs_csr").begin_object();
    w.field_str("dataset", "rmat-s12");
    w.field_str("variant", &TuneChoice::FALLBACK.variant_name());
    w.field_u64("nnz", csr_nnz as u64);
    w.field_u64("iters", CSR_ITERS as u64);
    w.field_f64("fast_median_secs", csr_fast_secs);
    w.field_f64("csr_median_secs", csr_secs);
    w.field_f64("fast_over_csr", fast_over_csr);
    w.end_object();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }

    println!("SpMM exec-mode baseline (N={n}, median of {ITERS}):");
    println!(
        "{:<14} {:<9} {:>10} {:>16} {:>16} {:>9}",
        "dataset", "precision", "nnz", "fast GFLOP-eq", "simulate GFLOP-eq", "speedup"
    );
    for r in &rows {
        println!(
            "{:<14} {:<9} {:>10} {:>16.2} {:>16.2} {:>8.2}x",
            r.dataset,
            r.precision,
            r.nnz,
            r.gflops_equiv_fast,
            r.gflops_equiv_simulate,
            r.speedup()
        );
    }
    println!(
        "rmat-s12 f32 SpMM (nnz {csr_nnz}, median of {CSR_ITERS}): fast {:.2} ms, CSR row-parallel {:.2} ms",
        csr_fast_secs * 1e3,
        csr_secs * 1e3
    );
    println!("wrote {path} (min speedup {min_speedup:.2}x, fast/CSR {fast_over_csr:.2})");
}

/// Measure what the tracing instrumentation costs and write the numbers
/// as JSON — the data behind the "zero-cost when disarmed" claim.
///
/// Two measurements:
/// 1. `site_disarmed_ns`: the raw per-call cost of a disarmed span site
///    (one relaxed atomic load, no clock read), averaged over a million
///    calls. CI gates on this staying in the low tens of nanoseconds —
///    a deterministic bound, unlike an end-to-end wall-clock ratio.
/// 2. `armed_ratio`: fast-path SpMM medians with tracing disarmed vs
///    armed, recorded for the report (armed tracing pays a clock read
///    plus a histogram bump per window-batch chunk).
fn run_trace_ab_json(path: &str) {
    const ITERS: usize = 7;
    const SITE_CALLS: u64 = 1_000_000;

    // (1) Disarmed span-site cost.
    let site_disarmed_ns = {
        let _scope = fs_trace::TraceScope::disarmed();
        let t = Instant::now();
        for _ in 0..SITE_CALLS {
            drop(fs_trace::span(std::hint::black_box(fs_trace::Site::WindowBatch)));
        }
        t.elapsed().as_nanos() as f64 / SITE_CALLS as f64
    };

    // (2) Fast-path A/B on the rmat-s8 fp16 workload from --bench-json.
    let csr = CsrMatrix::from_coo(&rmat::<f32>(8, 8, RmatConfig::GRAPH500, true, 42));
    let n = 128usize;
    let b16 = DenseMatrix::<F16>::from_fn(csr.cols(), n, |r, c| ((r + c) % 7) as f32 * 0.25);
    let me16: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), F16::SPEC);
    let run = || {
        spmm_with(&me16, &b16, ThreadMapping::MemoryEfficient, pinned(ExecMode::Fast));
    };
    let (disarmed_secs, armed_secs, armed_spans) = {
        let scope = fs_trace::TraceScope::disarmed();
        let disarmed_secs = median_secs(ITERS, run);
        drop(scope);
        let _scope = fs_trace::TraceScope::armed();
        let armed_secs = median_secs(ITERS, run);
        let armed_spans = fs_trace::snapshot().total_spans();
        (disarmed_secs, armed_secs, armed_spans)
    };
    let armed_ratio = armed_secs / disarmed_secs;

    let mut w = fs_trace::export::JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "trace_ab");
    w.field_u64("site_calls", SITE_CALLS);
    w.field_f64("site_disarmed_ns", site_disarmed_ns);
    w.field_f64("fast_disarmed_median_secs", disarmed_secs);
    w.field_f64("fast_armed_median_secs", armed_secs);
    w.field_f64("armed_ratio", armed_ratio);
    w.field_u64("armed_span_count", armed_spans);
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "trace A/B: disarmed span site {site_disarmed_ns:.1} ns/call, \
         fast path disarmed {disarmed_secs:.2e}s vs armed {armed_secs:.2e}s \
         (ratio {armed_ratio:.3}, {armed_spans} spans recorded)"
    );
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut matrix: Option<CsrMatrix<f32>> = None;
    let mut source = String::new();
    let mut n = 128usize;
    let mut sddmm_k = 32usize;
    let mut json = false;
    let mut trace = false;
    let mut trace_out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mtx" => {
                let path = it.next().unwrap_or_else(|| usage());
                match read_mtx_file::<f32>(path) {
                    Ok(m) => {
                        source = path.to_string();
                        matrix = Some(m);
                    }
                    Err(e) => {
                        eprintln!("failed to read {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--rmat" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (scale, ef) = spec
                    .split_once('x')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .unwrap_or_else(|| usage());
                source = format!("rmat scale {scale}, edge factor {ef}");
                matrix = Some(CsrMatrix::from_coo(&rmat::<f32>(
                    scale,
                    ef,
                    RmatConfig::GRAPH500,
                    true,
                    42,
                )));
            }
            "--uniform" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let parts: Vec<usize> = spec.split('x').filter_map(|t| t.parse().ok()).collect();
                if parts.len() != 3 {
                    usage();
                }
                source = format!("uniform {}x{} nnz {}", parts[0], parts[1], parts[2]);
                matrix = Some(CsrMatrix::from_coo(&random_uniform::<f32>(
                    parts[0], parts[1], parts[2], 42,
                )));
            }
            "--n" => n = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--sddmm-k" => {
                sddmm_k = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--json" => json = true,
            "--trace" => trace = true,
            "--trace-out" => {
                trace = true;
                trace_out = Some(it.next().unwrap_or_else(|| usage()).to_string());
            }
            "--bench-json" => {
                let path = it.next().unwrap_or_else(|| usage());
                run_bench_json(path);
                return;
            }
            "--trace-ab-json" => {
                let path = it.next().unwrap_or_else(|| usage());
                run_trace_ab_json(path);
                return;
            }
            other => {
                eprintln!("spmm_cli: unknown argument '{other}'");
                usage()
            }
        }
    }
    let Some(csr) = matrix else { usage() };

    if trace {
        fs_trace::set_armed(true);
    }

    // --- Structure ---
    let s = sparsity_stats(&csr);
    println!("matrix: {source}");
    println!(
        "{} x {}, {} nonzeros ({:.4}% dense), avg row {:.2}, max row {}, row CV {:.2}",
        s.rows,
        s.cols,
        s.nnz,
        s.density * 100.0,
        s.avg_row_length,
        s.max_row_length,
        s.row_cv
    );
    println!("\nsparsity pattern:");
    print!("{}", render_sparsity(&csr, 32));

    // --- Format statistics ---
    let v8 = vector_stats(&csr, TcFormatSpec::FLASH_FP16);
    let v16 = vector_stats(&csr, TcFormatSpec::SOTA16_FP16);
    println!(
        "\nnonzero vectors: 8x1 -> {} ({:.1}% fill), 16x1 -> {} ({:.1}% fill)",
        v8.nonzero_vectors,
        v8.fill_ratio() * 100.0,
        v16.nonzero_vectors,
        v16.fill_ratio() * 100.0
    );

    // --- Auto-tuner ---
    let gpu = GpuSpec::RTX4090;
    let choice = auto_tune(&csr, n, gpu);
    println!(
        "auto-tuned FlashSparse config: {} k={} {:?}",
        choice.precision.name(),
        choice.block_k,
        choice.mapping
    );

    // --- SpMM comparison ---
    println!("\nSpMM (N={n}), simulated:");
    println!(
        "{:<18} {:>14} {:>14} {:>12} {:>12}",
        "algorithm", "H100 GFLOPS", "4090 GFLOPS", "MMAs", "bytes moved"
    );
    for m in measure_spmm_all(&csr, n) {
        println!(
            "{:<18} {:>14.0} {:>14.0} {:>12} {:>12}",
            m.algo,
            m.gflops(GpuSpec::H100_PCIE),
            m.gflops(GpuSpec::RTX4090),
            m.run.counters.mma_count + m.run.counters.wmma_count,
            m.run.counters.bytes_moved()
        );
        if json {
            // Same serializer the figures binary and server metrics use.
            println!("  {{\"algo\":\"{}\",\"counters\":{}}}", m.algo, m.run.counters.to_json());
        }
    }

    // --- SDDMM comparison ---
    println!("\nSDDMM (K={sddmm_k}), simulated:");
    println!("{:<18} {:>14} {:>14} {:>12}", "algorithm", "H100 GFLOPS", "4090 GFLOPS", "MMAs");
    for m in measure_sddmm_all(&csr.with_unit_values(), sddmm_k) {
        println!(
            "{:<18} {:>14.0} {:>14.0} {:>12}",
            m.algo,
            m.gflops(GpuSpec::H100_PCIE),
            m.gflops(GpuSpec::RTX4090),
            m.run.counters.mma_count + m.run.counters.wmma_count
        );
    }

    // --- Trace exports ---
    if trace {
        let snap = fs_trace::snapshot();
        println!("\ntrace ({} spans recorded):", snap.total_spans());
        print!("{}", fs_trace::export::prometheus_text(&snap));
        if let Some(path) = &trace_out {
            let chrome = fs_trace::export::chrome_trace(&snap);
            match std::fs::write(path, chrome) {
                Ok(()) => println!("wrote trace timeline to {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
