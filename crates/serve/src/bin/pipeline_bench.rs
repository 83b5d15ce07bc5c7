//! What a never-seen matrix costs its first caller: the first request on
//! a matrix (cache miss) against a later request on the same matrix
//! (cache hit), on the pipelined engine — overlapped FALLBACK execution,
//! tuning deferred to a background thread — and, for reference, the first
//! request on the classic engine (auto-tune + translate on the critical
//! path).
//!
//! ```text
//! pipeline_bench [--out BENCH_pipeline.json] [--requests N] [--rows N] [--n N]
//! ```
//!
//! Each engine runs in-process (no TCP) with one worker and its format
//! cache on, and serves `N` distinct matrices (one R-MAT seed each, so no
//! two share a fingerprint): the first request on a matrix is cold, a
//! second one after every matrix has had its first is warm. The JSON
//! report carries `cold_over_warm_p50` — the pipelined engine's median
//! cold request over its median warm one, the number ci.sh gates — and the
//! same ratio of the p95s.

use std::time::Instant;

use fs_matrix::gen::{rmat, RmatConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::{EngineConfig, FlagParser, ServeEngine, SpmmOutcome, SpmmRequest};

const WARMUP: usize = 3;

fn usage() -> ! {
    eprintln!("usage: pipeline_bench [--out FILE] [--requests N] [--rows N] [--n N]");
    std::process::exit(2);
}

/// Sorted per-request latencies in microseconds.
struct Latencies {
    /// First request on each matrix: a cache miss.
    cold: Vec<u64>,
    /// A later request on each matrix: a cache hit.
    warm: Vec<u64>,
}

/// Register every matrix on a fresh engine and time two requests on each;
/// the first `WARMUP` matrices are not reported.
fn latencies(pipeline: bool, matrices: &[CsrMatrix<f32>], n: usize) -> Latencies {
    let engine =
        ServeEngine::start(EngineConfig { workers: 1, pipeline, ..EngineConfig::default() });
    let request = |matrix_id: u64, b: &DenseMatrix<f32>| {
        let t0 = Instant::now();
        let outcome = engine.spmm_blocking(SpmmRequest {
            tenant: "bench".to_string(),
            matrix_id,
            b: b.clone(),
            deadline: None,
        });
        assert!(matches!(outcome, Ok(SpmmOutcome::Done(_))), "{outcome:?}");
        t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    };
    let operand = |csr: &CsrMatrix<f32>| {
        DenseMatrix::from_f32_slice(
            csr.cols(),
            n,
            &(0..csr.cols() * n).map(|i| ((i % 11) as f32 - 5.0) * 0.125).collect::<Vec<f32>>(),
        )
    };
    // Every first request back to back (on the pipelined engine each runs
    // beside the previous matrix's background upgrade, as a stream of new
    // matrices would), then one more request per matrix, all upgraded.
    let mut ids = Vec::with_capacity(matrices.len());
    let mut cold = Vec::with_capacity(matrices.len());
    for csr in matrices {
        let info = engine.register_matrix("bench", csr.clone()).expect("registered"); // lint: allow-panic - bench setup; a failed registration is fatal
        ids.push(info.id);
        cold.push(request(info.id, &operand(csr)));
    }
    let mut warm: Vec<u64> =
        matrices.iter().zip(&ids).map(|(csr, &id)| request(id, &operand(csr))).collect();
    cold.drain(..WARMUP);
    warm.drain(..WARMUP);
    engine.shutdown();
    cold.sort_unstable();
    warm.sort_unstable();
    Latencies { cold, warm }
}

fn main() {
    let mut p = FlagParser::from_env();
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut requests = 25usize;
    let mut rows = 2048usize;
    let mut n = 32usize;
    while let Some(flag) = p.next_flag() {
        let r = match flag.as_str() {
            "--help" | "-h" => usage(),
            "--out" => p.value(&flag).map(|v| out_path = v),
            "--requests" => p.typed(&flag).map(|v| requests = v),
            "--rows" => p.typed(&flag).map(|v| rows = v),
            "--n" => p.typed(&flag).map(|v| n = v),
            other => {
                eprintln!("pipeline_bench: unknown flag {other}");
                usage();
            }
        };
        if let Err(msg) = r {
            eprintln!("pipeline_bench: {msg}");
            usage();
        }
    }
    let requests = requests.max(1);

    // Power-law graphs spanning many row windows, so the overlapped
    // engine streams multiple slabs (SLAB_WINDOWS x 8 rows each).
    let scale = rows.next_power_of_two().trailing_zeros();
    let matrices: Vec<CsrMatrix<f32>> = (0..(requests + WARMUP) as u64)
        .map(|i| CsrMatrix::from_coo(&rmat::<f32>(scale, 8, RmatConfig::GRAPH500, true, 42 + i)))
        .collect();
    let csr = &matrices[0];
    println!(
        "pipeline_bench: {}x{} nnz={} n={} matrices={} (+{WARMUP} warmup) per engine",
        csr.rows(),
        csr.cols(),
        csr.nnz(),
        n,
        requests
    );

    let seq = latencies(false, &matrices, n);
    let pipe = latencies(true, &matrices, n);
    let p = fs_serve::percentile;
    let (seq_p50, seq_p95) = (p(&seq.cold, 50.0), p(&seq.cold, 95.0));
    let (pipe_p50, pipe_p95) = (p(&pipe.cold, 50.0), p(&pipe.cold, 95.0));
    let (warm_p50, warm_p95) = (p(&pipe.warm, 50.0), p(&pipe.warm, 95.0));
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    let mut w = fs_trace::export::JsonWriter::new();
    w.begin_object();
    w.field_u64("rows", csr.rows() as u64);
    w.field_u64("cols", csr.cols() as u64);
    w.field_u64("nnz", csr.nnz() as u64);
    w.field_u64("n", n as u64);
    w.field_u64("requests", requests as u64);
    w.field_u64("cold_seq_p50_us", seq_p50);
    w.field_u64("cold_seq_p95_us", seq_p95);
    w.field_u64("cold_pipeline_p50_us", pipe_p50);
    w.field_u64("cold_pipeline_p95_us", pipe_p95);
    w.field_u64("warm_p50_us", warm_p50);
    w.field_u64("warm_p95_us", warm_p95);
    w.field_f64("cold_over_warm_p50", ratio(pipe_p50, warm_p50));
    w.field_f64("cold_over_warm_p95", ratio(pipe_p95, warm_p95));
    w.end_object();
    let json = w.finish();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("pipeline_bench: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!(
        "pipeline_bench: first request p95 {pipe_p95}us (classic {seq_p95}us), warm p95 {warm_p95}us \
         ({:.2}x); p50 {pipe_p50}us (classic {seq_p50}us), warm {warm_p50}us ({:.2}x)",
        ratio(pipe_p95, warm_p95),
        ratio(pipe_p50, warm_p50),
    );
    println!("pipeline_bench: wrote {out_path}");
}
