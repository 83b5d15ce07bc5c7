//! Traffic generation against a running `fs-serve`: open- and
//! closed-loop drivers with a JSON latency/throughput report.
//!
//! Closed loop: `concurrency` workers each keep one request in flight —
//! throughput is what the server sustains. Open loop: requests are fired
//! on a fixed-rate schedule regardless of completions — latency includes
//! the queueing a server under offered load actually builds up (the
//! coordinated-omission-free number).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use flashsparse::{FallbackLevel, DEFAULT_TOLERANCE};
use fs_chaos::Backoff;
use fs_gnn::nn::{accuracy, cross_entropy};
use fs_gnn::{normalize_adjacency, GcnModel, SparseOps};
use fs_matrix::gen::{random_uniform, rmat, sbm, RmatConfig, SbmConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_tcu::GpuSpec;
use parking_lot::Mutex;

use crate::client::{ClientError, ClusterSpmmResult, ServeClient};
use crate::gnn_infer::backend_for_precision;
use crate::protocol::ErrorCode;

/// Attempts per request in chaos mode (first try + retries).
const CHAOS_ATTEMPTS: u32 = 6;

/// Which synthetic matrix the generator loads.
#[derive(Clone, Copy, Debug)]
pub enum MatrixSpec {
    /// Power-law graph: `2^scale` nodes, `edge_factor` edges per node.
    Rmat {
        /// log2 of the node count.
        scale: u32,
        /// Edges per node.
        edge_factor: usize,
    },
    /// Uniform random: `rows × cols` with `nnz` nonzeros.
    Uniform {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Nonzeros.
        nnz: usize,
    },
}

impl MatrixSpec {
    /// Materialize the matrix (deterministic seed, so every worker and
    /// every run loads identical content — one cache entry server-side).
    pub fn build(&self) -> CsrMatrix<f32> {
        match *self {
            MatrixSpec::Rmat { scale, edge_factor } => CsrMatrix::from_coo(&rmat::<f32>(
                scale,
                edge_factor,
                RmatConfig::GRAPH500,
                true,
                42,
            )),
            MatrixSpec::Uniform { rows, cols, nnz } => {
                CsrMatrix::from_coo(&random_uniform::<f32>(rows, cols, nnz, 42))
            }
        }
    }
}

/// Load-generator settings.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Worker connections.
    pub concurrency: usize,
    /// Distinct tenants to spread workers across.
    pub tenants: usize,
    /// Total requests (closed loop) or upper bound (open loop).
    pub requests: usize,
    /// Open-loop offered rate; `None` = closed loop.
    pub open_rps: Option<f64>,
    /// Open-loop duration.
    pub duration: Duration,
    /// Dense-operand columns.
    pub n: usize,
    /// The matrix to serve against.
    pub matrix: MatrixSpec,
    /// Per-request deadline in ms (0 = server default).
    pub deadline_ms: u32,
    /// How long to retry the initial connection.
    pub ready_timeout: Duration,
    /// Chaos soak mode: retry transient failures with jittered backoff
    /// and verify every completed response against the scalar reference
    /// computed client-side. Errors are tolerated (they are the point);
    /// a response whose numbers are wrong is counted in
    /// [`LoadReport::wrong`] — the one number that must stay zero.
    pub chaos: bool,
    /// Drive an `fs-cluster` router instead of a plain server: requests
    /// go through the scatter-gather op, and chaos verification checks
    /// degraded responses row-wise — present rows against the reference,
    /// absent rows all-zero as the bitmap promises.
    pub cluster: bool,
    /// GNN inference mode: train a small GCN client-side, register the
    /// graph and weights, then drive `REQ_GNN_INFER` instead of SpMM.
    /// Every response is bit-compared against the offline fs-gnn forward
    /// pass; a mismatch counts in [`LoadReport::wrong`].
    pub gnn: Option<GnnSpec>,
}

/// Settings of the `--gnn` workload.
#[derive(Clone, Copy, Debug)]
pub struct GnnSpec {
    /// Nodes of the planted-community (SBM) graph.
    pub nodes: usize,
    /// Input feature dimension.
    pub feature_dim: usize,
    /// GCN hidden dimension.
    pub hidden: usize,
    /// Client-side training epochs before the weights are registered.
    pub train_epochs: usize,
    /// Wire precision for every request: 0 = FP32, 1 = TF32, 2 = FP16.
    pub precision: u8,
    /// Distinct feature matrices cycled across requests — repeats hit
    /// the server's embedding cache, fresh ones miss.
    pub variants: usize,
}

impl Default for GnnSpec {
    fn default() -> GnnSpec {
        GnnSpec {
            nodes: 256,
            feature_dim: 32,
            hidden: 32,
            train_epochs: 30,
            precision: 2,
            variants: 4,
        }
    }
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 7949)),
            concurrency: 4,
            tenants: 1,
            requests: 200,
            open_rps: None,
            duration: Duration::from_secs(5),
            n: 32,
            matrix: MatrixSpec::Uniform { rows: 512, cols: 512, nnz: 8192 },
            deadline_ms: 0,
            ready_timeout: Duration::from_secs(10),
            chaos: false,
            cluster: false,
            gnn: None,
        }
    }
}

/// Aggregated results of one run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests shed on deadline.
    pub timed_out: u64,
    /// Transport/internal failures.
    pub errors: u64,
    /// Responses served from the format cache.
    pub cache_hits: u64,
    /// Wall-clock of the measurement window, milliseconds.
    pub duration_ms: u64,
    /// Completed requests per second.
    pub rps: f64,
    /// Latency percentiles over completed requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Mean latency.
    pub mean_us: u64,
    /// Completed requests NOT served from the format cache — each paid
    /// the cold path (translate + tune, or the pipelined overlap).
    pub cold_requests: u64,
    /// 99th percentile latency over cold requests only. The headline
    /// percentiles mix the one-per-matrix cold requests into the warm
    /// steady state, where they vanish at p50/p95 on long runs; this
    /// field is the number the pipelined cold path is gated on.
    pub cold_p99_us: u64,
    /// Largest micro-batch any response reported.
    pub max_batch: u64,
    /// Chaos mode: completed responses whose numbers did not match the
    /// client-side scalar reference — silent corruption. Must be zero.
    pub wrong: u64,
    /// Chaos mode: retry attempts spent recovering transient failures.
    pub retried: u64,
    /// Chaos mode: responses served from a fallback rung (not tuned).
    pub fallbacks: u64,
    /// Server-side launches executed on the fast path (from the
    /// engine's cumulative metrics, fetched at the end of the run).
    pub fast_launches: u64,
    /// Server-side launches executed on the full simulator.
    pub simulate_launches: u64,
    /// Fast launches that skipped the per-launch format validation
    /// because the cached format carries the translation-time witness.
    pub validate_skips: u64,
    /// Cluster mode: completed responses that came back degraded (a row
    /// slab lost past its replica, reported via the present-rows bitmap).
    pub degraded: u64,
    /// Cluster mode: shard attempts (including replica retries) that
    /// failed across all completed responses.
    pub shard_failures: u64,
    /// The server's listen address as its metrics document reports it
    /// (empty when the end-of-run metrics fetch failed).
    pub server_addr: String,
    /// The server's bind-time epoch (ms since the Unix epoch): a run
    /// script comparing this across runs detects server restarts.
    pub server_start_epoch: u64,
    /// Cluster mode: degraded completions bucketed per second of the
    /// run (index = seconds since the run started). A healthy soak is
    /// all zeros; a kill mid-soak shows a nonzero window that returns
    /// to zero once the heal loop re-replicates the lost slabs.
    pub degraded_timeline: Vec<u64>,
    /// Router heal ticks, echoed from the `heal` section of the
    /// router's metrics document (zero against a plain server).
    pub heal_ticks: u64,
    /// Router slab repairs completed, echoed from `heal`.
    pub heal_repairs_completed: u64,
    /// Tick of the most recent repair, echoed from `heal`.
    pub heal_last_repair_epoch: u64,
    /// Shard rejoin reconciliations, echoed from `heal`.
    pub heal_rejoins: u64,
    /// Per-shard detector states (`up`/`suspect`/`down`) in shard-index
    /// order, echoed from `heal` (empty against a plain server).
    pub heal_shard_states: Vec<String>,
    /// GNN mode: wire precision driven (0/1/2); 0 outside GNN mode too,
    /// so read it together with `mode == "gnn"`.
    pub gnn_precision: u8,
    /// GNN mode: model layers (length of the per-layer latency arrays).
    pub gnn_layers: u64,
    /// GNN mode: test-split accuracy of the served logits (argmax over
    /// the offline reference, which the server must match bitwise).
    pub gnn_accuracy: f64,
    /// GNN mode: per-layer p50 server-side microseconds over cache
    /// misses (hits skip the forward pass entirely).
    pub gnn_layer_p50_us: Vec<u64>,
    /// GNN mode: per-layer p95 server-side microseconds over cache misses.
    pub gnn_layer_p95_us: Vec<u64>,
}

impl LoadReport {
    /// Cache hits over completed requests.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.completed as f64
        }
    }

    /// The run report as a single JSON object (built with the shared
    /// [`fs_trace::export::JsonWriter`], so string fields are escaped).
    pub fn to_json(&self) -> String {
        let mut w = fs_trace::export::JsonWriter::new();
        w.begin_object();
        w.field_str("mode", &self.mode);
        w.field_u64("completed", self.completed);
        w.field_u64("rejected", self.rejected);
        w.field_u64("timed_out", self.timed_out);
        w.field_u64("errors", self.errors);
        w.field_u64("cache_hits", self.cache_hits);
        w.field_f64("cache_hit_rate", self.cache_hit_rate());
        w.field_u64("duration_ms", self.duration_ms);
        w.field_f64("rps", self.rps);
        w.field_u64("p50_us", self.p50_us);
        w.field_u64("p95_us", self.p95_us);
        w.field_u64("p99_us", self.p99_us);
        w.field_u64("mean_us", self.mean_us);
        w.field_u64("cold_requests", self.cold_requests);
        w.field_u64("cold_p99_us", self.cold_p99_us);
        w.field_u64("max_batch", self.max_batch);
        w.field_u64("wrong", self.wrong);
        w.field_u64("retried", self.retried);
        w.field_u64("fallbacks", self.fallbacks);
        w.field_u64("fast_launches", self.fast_launches);
        w.field_u64("simulate_launches", self.simulate_launches);
        w.field_u64("validate_skips", self.validate_skips);
        w.field_u64("degraded", self.degraded);
        w.field_u64("shard_failures", self.shard_failures);
        w.field_str("server_addr", &self.server_addr);
        w.field_u64("server_start_epoch", self.server_start_epoch);
        u64_array(&mut w, "degraded_timeline", &self.degraded_timeline);
        w.field_u64("heal_ticks", self.heal_ticks);
        w.field_u64("heal_repairs_completed", self.heal_repairs_completed);
        w.field_u64("heal_last_repair_epoch", self.heal_last_repair_epoch);
        w.field_u64("heal_rejoins", self.heal_rejoins);
        w.key("heal_shard_states").begin_array();
        for s in &self.heal_shard_states {
            w.value_str(s);
        }
        w.end_array();
        w.field_u64("gnn_precision", u64::from(self.gnn_precision));
        w.field_u64("gnn_layers", self.gnn_layers);
        w.field_f64("gnn_accuracy", self.gnn_accuracy);
        u64_array(&mut w, "gnn_layer_p50_us", &self.gnn_layer_p50_us);
        u64_array(&mut w, "gnn_layer_p95_us", &self.gnn_layer_p95_us);
        w.end_object();
        w.finish()
    }
}

fn u64_array(w: &mut fs_trace::export::JsonWriter, key: &str, values: &[u64]) {
    w.key(key).begin_array();
    for &v in values {
        w.value_u64(v);
    }
    w.end_array();
}

/// Pull a `"key":123` integer out of a JSON fragment (first occurrence
/// wins; callers narrow the fragment to the section they mean).
fn extract_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    json.find(&needle)
        .and_then(|i| {
            let rest = &json[i + needle.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// Pull a `"key":"value"` string out of a JSON fragment (first
/// occurrence; values are assumed escape-free, which holds for the
/// socket addresses this reads).
fn extract_str(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":\"");
    json.find(&needle)
        .and_then(|i| {
            let rest = &json[i + needle.len()..];
            rest.find('"').map(|end| rest[..end].to_string())
        })
        .unwrap_or_default()
}

/// Every `"key":"value"` occurrence in a JSON fragment, in order — used
/// for the per-shard `state` entries of the router's `heal` section.
fn extract_all_str(json: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&needle) {
        rest = &rest[i + needle.len()..];
        let Some(end) = rest.find('"') else { break };
        out.push(rest[..end].to_string());
        rest = &rest[end..];
    }
    out
}

/// Percentile of a sorted latency list (nearest-rank).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Chaos-mode response check: the served numbers against the scalar
/// reference, NaN-hostile (`!(diff <= tol)` rejects NaN).
fn response_matches(out: &[f32], expected: &[f32]) -> bool {
    out.len() == expected.len()
        && out.iter().zip(expected).all(|(&a, &e)| (a - e).abs() <= DEFAULT_TOLERANCE)
}

/// Cluster-mode response check, degradation-aware: rows the bitmap marks
/// present must match the reference; rows it marks absent must be
/// exactly zero (the router's zero-fill contract). A degraded response
/// with correct present rows is NOT wrong — losing a slab is the fault
/// model working, corrupting one is not.
fn cluster_response_matches(resp: &ClusterSpmmResult, expected: &[f32], n: usize) -> bool {
    if resp.out.len() != expected.len() || n == 0 {
        return false;
    }
    (0..resp.rows).all(|r| {
        let (row, exp) = (&resp.out[r * n..(r + 1) * n], &expected[r * n..(r + 1) * n]);
        if resp.row_present(r) {
            row.iter().zip(exp).all(|(&a, &e)| (a - e).abs() <= DEFAULT_TOLERANCE)
        } else {
            row.iter().all(|&v| v == 0.0)
        }
    })
}

/// What one answered request contributes to the report beyond its
/// latency — the record each mode's per-request operation returns.
#[derive(Default)]
struct Sample {
    /// Served from the server's format (or, in GNN mode, embedding) cache.
    cache_hit: bool,
    /// Plain mode: a format-cache miss, whose latency also counts as a
    /// cold one (cluster responses do not carry the per-shard hit bit).
    cold: bool,
    /// Micro-batch size the response reported.
    batch: u64,
    /// Served from a fallback rung (not tuned).
    fallback: bool,
    /// The numbers did not match the client-side reference.
    wrong: bool,
    /// Cluster mode: a slab was lost.
    degraded: bool,
    /// Cluster mode: shard attempts that failed.
    shard_failures: u64,
    /// GNN mode: per-layer server-side microseconds of a cache miss.
    layer_micros: Vec<u64>,
}

/// Everything the workers of one run add up, behind one lock.
#[derive(Default)]
struct Tally {
    /// The additive counters, accumulated in place.
    report: LoadReport,
    latencies: Vec<u64>,
    cold_latencies: Vec<u64>,
    /// Second-of-run (floor) of each degraded completion, for the
    /// report's per-second timeline.
    degraded_seconds: Vec<u64>,
    /// Per-layer server-side microseconds over cache misses.
    layer_micros: Vec<Vec<u64>>,
}

/// The one load driver. `cfg.concurrency` workers each hold a connection
/// and claim request slots from a shared counter — in closed loop as fast
/// as responses come back, in open loop at the slot's scheduled instant.
/// `op(client, worker, slot)` performs one request and says what it saw;
/// under `cfg.chaos` it runs inside [`ServeClient::retrying`]. Outcomes
/// are classified and tallied here, and the tally becomes the report:
/// `mode`, the counters, latency percentiles, the cluster timeline, the
/// `layers` per-layer GNN percentiles and the server's own metrics.
fn drive(
    cfg: &LoadgenConfig,
    mode: &str,
    layers: usize,
    op: impl Fn(&mut ServeClient, usize, usize) -> Result<Sample, ClientError> + Sync,
) -> LoadReport {
    let tally = Mutex::new(Tally { layer_micros: vec![Vec::new(); layers], ..Tally::default() });
    let issued = AtomicUsize::new(0);
    let started = Instant::now();
    let worker = |w: usize| {
        let Ok(mut client) = connect(cfg) else {
            tally.lock().report.errors += 1;
            return;
        };
        let mut backoff = Backoff::for_client(w as u64);
        loop {
            let slot = issued.fetch_add(1, Ordering::Relaxed);
            if slot >= cfg.requests {
                break;
            }
            if let Some(rps) = cfg.open_rps {
                // Open loop: fire at the scheduled instant, not when the
                // previous response lands.
                let due = started + Duration::from_secs_f64(slot as f64 / rps);
                thread::sleep(due.saturating_duration_since(Instant::now()));
                if started.elapsed() > cfg.duration {
                    break;
                }
            }
            let t0 = Instant::now();
            let result = if cfg.chaos {
                client.retrying(CHAOS_ATTEMPTS, &mut backoff, |c| op(c, w, slot))
            } else {
                op(&mut client, w, slot)
            };
            let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            let mut t = tally.lock();
            t.report.retried += u64::from(backoff.attempts());
            backoff.reset();
            match result {
                Ok(sample) => {
                    t.latencies.push(us);
                    t.report.cache_hits += u64::from(sample.cache_hit);
                    if sample.cold {
                        t.cold_latencies.push(us);
                    }
                    t.report.max_batch = t.report.max_batch.max(sample.batch);
                    t.report.fallbacks += u64::from(sample.fallback);
                    t.report.wrong += u64::from(sample.wrong);
                    if sample.degraded {
                        t.report.degraded += 1;
                        t.degraded_seconds.push(started.elapsed().as_secs());
                    }
                    t.report.shard_failures += sample.shard_failures;
                    for (bucket, us) in t.layer_micros.iter_mut().zip(sample.layer_micros) {
                        bucket.push(us);
                    }
                }
                Err(ClientError::Server { code: ErrorCode::QueueFull, .. }) => {
                    t.report.rejected += 1;
                }
                Err(ClientError::Server { code: ErrorCode::DeadlineExceeded, .. }) => {
                    t.report.timed_out += 1;
                }
                Err(e) => {
                    t.report.errors += 1;
                    drop(t);
                    // A dropped connection otherwise wastes the rest of
                    // this worker's slots: dial again, once.
                    if e.needs_reconnect() {
                        match connect(cfg) {
                            Ok(c) => client = c,
                            Err(_) => break,
                        }
                    }
                }
            }
        }
    };
    let panicked = thread::scope(|scope| {
        let handles: Vec<_> =
            (0..cfg.concurrency.max(1)).map(|w| scope.spawn(move || worker(w))).collect();
        handles.into_iter().filter_map(|h| h.join().err()).count()
    });

    let elapsed = started.elapsed();
    let Tally { mut report, mut latencies, mut cold_latencies, degraded_seconds, layer_micros } =
        tally.into_inner();
    report.mode = mode.to_string();
    report.errors += panicked as u64;
    latencies.sort_unstable();
    report.completed = latencies.len() as u64;
    report.duration_ms = elapsed.as_millis().min(u128::from(u64::MAX)) as u64;
    report.rps = if elapsed.as_secs_f64() > 0.0 {
        report.completed as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    report.p50_us = percentile(&latencies, 50.0);
    report.p95_us = percentile(&latencies, 95.0);
    report.p99_us = percentile(&latencies, 99.0);
    report.mean_us = latencies.iter().sum::<u64>().checked_div(latencies.len() as u64).unwrap_or(0);
    cold_latencies.sort_unstable();
    report.cold_requests = cold_latencies.len() as u64;
    report.cold_p99_us = percentile(&cold_latencies, 99.0);
    // Per-second degraded buckets, spanning the whole measurement
    // window so trailing zeros ("it healed and stayed healed") are
    // visible in the report.
    if cfg.cluster {
        let span = (elapsed.as_secs() + 1).max(degraded_seconds.iter().max().map_or(0, |&s| s + 1));
        report.degraded_timeline = vec![0; span.min(3600) as usize]; // lint: checked-cast - capped at 3600
        for s in degraded_seconds {
            if let Some(bucket) = report.degraded_timeline.get_mut(s as usize) {
                *bucket += 1;
            }
        }
    }
    for mut bucket in layer_micros {
        bucket.sort_unstable();
        report.gnn_layer_p50_us.push(percentile(&bucket, 50.0));
        report.gnn_layer_p95_us.push(percentile(&bucket, 95.0));
    }
    attach_server_metrics(&mut report, cfg);
    report
}

/// The set-up connection registrations go over.
fn connect(cfg: &LoadgenConfig) -> Result<ServeClient, String> {
    ServeClient::connect_with_retry(&cfg.addr, cfg.ready_timeout)
        .map_err(|e| format!("server not reachable: {e}"))
}

/// One registration call — retried through chaos-injected frame faults in
/// chaos mode. A duplicate registration after a corrupted reply is
/// harmless: identical content shares one cache entry server-side, and
/// the last ids win.
fn registering<T>(
    cfg: &LoadgenConfig,
    probe: &mut ServeClient,
    call: impl FnMut(&mut ServeClient) -> Result<T, ClientError>,
) -> Result<T, String> {
    let attempts = if cfg.chaos { CHAOS_ATTEMPTS } else { 1 };
    probe
        .retrying(attempts, &mut Backoff::for_client(0x10AD), call)
        .map_err(|e| format!("registration failed: {e}"))
}

/// Run the configured workload. Returns the report, or an error string
/// when the server cannot be reached at all.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    if let Some(spec) = cfg.gnn {
        return run_gnn(cfg, spec);
    }
    let csr = cfg.matrix.build();
    let b: Vec<f32> = (0..csr.cols() * cfg.n).map(|i| ((i % 11) as f32 - 5.0) * 0.125).collect();
    // Chaos mode holds the server to the zero-wrong-responses contract:
    // every request is identical, so one client-side scalar reference
    // checks them all.
    let expected: Option<Vec<f32>> = cfg.chaos.then(|| {
        let dense = DenseMatrix::<f32>::from_f32_slice(csr.cols(), cfg.n, &b);
        csr.spmm_reference(&dense).as_slice().to_vec()
    });

    // One tenant-side registration per tenant name (identical content →
    // one shared cache entry server-side).
    let tenants: Vec<String> = (0..cfg.tenants.max(1)).map(|t| format!("t{t}")).collect();
    let mut probe = connect(cfg)?;
    let matrix_ids = tenants
        .iter()
        .map(|t| Ok(registering(cfg, &mut probe, |c| c.load_matrix(t, &csr))?.matrix_id))
        .collect::<Result<Vec<u64>, String>>()?;
    drop(probe);

    let mode = if cfg.open_rps.is_some() { "open" } else { "closed" };
    let (rows, n, deadline) = (csr.cols(), cfg.n, cfg.deadline_ms);
    let report = if cfg.cluster {
        drive(cfg, mode, 0, |client, w, _| {
            let t = w % tenants.len();
            let resp = client.cluster_spmm(&tenants[t], matrix_ids[t], rows, n, &b, deadline)?;
            Ok(Sample {
                wrong: expected.as_ref().is_some_and(|e| !cluster_response_matches(&resp, e, n)),
                degraded: resp.degraded,
                shard_failures: u64::from(resp.shards_failed),
                ..Sample::default()
            })
        })
    } else {
        drive(cfg, mode, 0, |client, w, _| {
            let t = w % tenants.len();
            let resp = client.spmm(&tenants[t], matrix_ids[t], rows, n, &b, deadline)?;
            Ok(Sample {
                cache_hit: resp.cache_hit,
                cold: !resp.cache_hit,
                batch: resp.batch_size as u64,
                fallback: resp.fallback_level != FallbackLevel::Tuned,
                wrong: expected.as_ref().is_some_and(|e| !response_matches(&resp.out, e)),
                ..Sample::default()
            })
        })
    };
    Ok(report)
}

/// Execution-mode accounting from the server's cumulative metrics
/// (best effort: a run against an unreachable/older server reports
/// zeros rather than failing the whole workload).
fn attach_server_metrics(report: &mut LoadReport, cfg: &LoadgenConfig) {
    if let Ok(mut c) = ServeClient::connect_with_retry(&cfg.addr, cfg.ready_timeout) {
        if let Ok(m) = c.metrics() {
            let exec = m.find("\"exec\":{").map(|i| &m[i..]).unwrap_or("");
            report.fast_launches = extract_u64(exec, "fast");
            report.simulate_launches = extract_u64(exec, "simulate");
            report.validate_skips = extract_u64(exec, "validate_skips");
            // Echo the server's identity so a run script can tell a
            // measured process from a silently restarted one (the epoch
            // advances on every bind).
            let server = m.find("\"server\":{").map(|i| &m[i..]).unwrap_or("");
            report.server_addr = extract_str(server, "addr");
            report.server_start_epoch = extract_u64(server, "start_epoch");
            // Echo the router's self-healing counters (absent from a
            // plain server's document: everything stays zero/empty).
            let heal = m.find("\"heal\":{").map(|i| &m[i..]).unwrap_or("");
            report.heal_ticks = extract_u64(heal, "ticks");
            report.heal_repairs_completed = extract_u64(heal, "repairs_completed");
            report.heal_last_repair_epoch = extract_u64(heal, "last_repair_epoch");
            report.heal_rejoins = extract_u64(heal, "rejoins");
            let states_end = heal.find(']').map(|i| &heal[..i]).unwrap_or("");
            report.heal_shard_states = extract_all_str(states_end, "state");
        }
    }
}

/// The `--gnn` workload: train a GCN offline, register the normalized
/// adjacency and the trained weights, then drive `REQ_GNN_INFER` across
/// `spec.variants` feature matrices. Served logits must be bit-identical
/// to the offline forward pass — any deviation counts as `wrong`.
fn run_gnn(cfg: &LoadgenConfig, spec: GnnSpec) -> Result<LoadReport, String> {
    let backend = backend_for_precision(spec.precision)
        .ok_or_else(|| format!("unknown gnn precision {} (0/1/2)", spec.precision))?;
    let ds = sbm(
        SbmConfig {
            nodes: spec.nodes,
            feature_dim: spec.feature_dim,
            feature_signal: 1.5,
            ..Default::default()
        },
        42,
    );
    let adj = normalize_adjacency(&ds.adjacency);

    // Brief offline training at the serving precision, so the registered
    // weights are the ones that precision actually produces (Table 8's
    // column, not FP32 weights replayed at FP16).
    let ops = SparseOps::new(backend, GpuSpec::RTX4090);
    let mut model = GcnModel::new(&[ds.features.cols(), spec.hidden, ds.classes], 0.01, 7);
    for _ in 0..spec.train_epochs {
        let logits = model.forward(&ops, &adj, &ds.features);
        let (_, grad) = cross_entropy(&logits, &ds.labels, &ds.train_idx);
        model.backward_and_step(&ops, &adj, &grad);
    }
    let weights = model.export_weights();

    // The feature variants requests cycle through: variant 0 is the real
    // dataset; the rest are small deterministic perturbations, each a
    // distinct embedding-cache key.
    let variants: Vec<DenseMatrix<f32>> = (0..spec.variants.max(1))
        .map(|v| {
            DenseMatrix::from_fn(ds.features.rows(), ds.features.cols(), |r, c| {
                ds.features.get(r, c) + v as f32 * 0.001
            })
        })
        .collect();

    // Offline bit-exact references (fresh SparseOps: stats do not alter
    // numerics, but keep the reference run self-contained).
    let ref_ops = SparseOps::new(backend, GpuSpec::RTX4090);
    let reference: Vec<DenseMatrix<f32>> =
        variants.iter().map(|features| weights.forward(&ref_ops, &adj, features)).collect();
    let test_accuracy = accuracy(&reference[0], &ds.labels, &ds.test_idx);

    // Register the graph, then the model against it.
    let (kind, wire, scalars) = weights.export_wire();
    let wire_weights: Vec<(u32, u32, Vec<f32>)> =
        wire.into_iter().map(|(r, c, data)| (r as u32, c as u32, data)).collect();
    let mut probe = connect(cfg)?;
    let graph = registering(cfg, &mut probe, |c| c.load_matrix("g0", &adj))?.matrix_id;
    let (model_id, _, layers) = registering(cfg, &mut probe, |c| {
        c.gnn_register("g0", graph, kind, wire_weights.clone(), scalars.clone())
    })?;
    drop(probe);
    let layers = layers as usize;

    let mut report = drive(cfg, "gnn", layers, |client, _, slot| {
        let variant = slot % variants.len();
        let features = &variants[variant];
        let resp = client.gnn_infer(
            "g0",
            model_id,
            spec.precision,
            cfg.deadline_ms,
            &[],
            features.rows(),
            features.cols(),
            features.as_slice(),
        )?;
        // Bit identity is the contract, in and out of chaos: the serving
        // path must replay the offline forward pass exactly.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        Ok(Sample {
            cache_hit: resp.cache_hit,
            wrong: bits(&resp.scores) != bits(reference[variant].as_slice()),
            layer_micros: if resp.cache_hit { Vec::new() } else { resp.layer_micros },
            ..Sample::default()
        })
    });
    report.gnn_precision = spec.precision;
    report.gnn_layers = layers as u64;
    report.gnn_accuracy = test_accuracy;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn report_json_has_the_acceptance_fields() {
        let mut r = LoadReport { mode: "closed".into(), ..LoadReport::default() };
        r.completed = 10;
        r.cache_hits = 9;
        r.rps = 123.456;
        r.p50_us = 1;
        r.p95_us = 2;
        r.p99_us = 3;
        r.fast_launches = 8;
        r.simulate_launches = 2;
        r.validate_skips = 7;
        r.cold_requests = 1;
        r.cold_p99_us = 4242;
        let j = r.to_json();
        for key in [
            "\"p50_us\":1",
            "\"p95_us\":2",
            "\"p99_us\":3",
            "\"rps\":123.456",
            "\"cache_hit_rate\":0.9",
            "\"fast_launches\":8",
            "\"simulate_launches\":2",
            "\"validate_skips\":7",
            "\"cold_requests\":1",
            "\"cold_p99_us\":4242",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn extract_u64_reads_the_exec_section() {
        let m = "{\"resilience\":{\"fallbacks_scalar\":4},\
                 \"exec\":{\"fast\":12,\"simulate\":3,\"validate_skips\":11}}";
        let exec = m.find("\"exec\":{").map(|i| &m[i..]).unwrap_or("");
        assert_eq!(extract_u64(exec, "fast"), 12);
        assert_eq!(extract_u64(exec, "simulate"), 3);
        assert_eq!(extract_u64(exec, "validate_skips"), 11);
        assert_eq!(extract_u64(exec, "missing"), 0);
    }

    #[test]
    fn extract_str_reads_the_server_section() {
        let m = "{\"server\":{\"addr\":\"127.0.0.1:7949\",\"start_epoch\":171},\"exec\":{}}";
        let server = m.find("\"server\":{").map(|i| &m[i..]).unwrap_or("");
        assert_eq!(extract_str(server, "addr"), "127.0.0.1:7949");
        assert_eq!(extract_u64(server, "start_epoch"), 171);
        assert_eq!(extract_str(server, "missing"), "");
    }

    #[test]
    fn cluster_check_accepts_degraded_zero_fill_and_rejects_corruption() {
        let expected = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let healthy = ClusterSpmmResult {
            out: expected.clone(),
            rows: 3,
            n: 2,
            degraded: false,
            present: Vec::new(),
            shards_ok: 3,
            shards_failed: 0,
        };
        assert!(cluster_response_matches(&healthy, &expected, 2));

        // Row 1 lost: present bitmap 0b101, lost row zero-filled.
        let degraded = ClusterSpmmResult {
            out: vec![1.0, 2.0, 0.0, 0.0, 5.0, 6.0],
            rows: 3,
            n: 2,
            degraded: true,
            present: vec![0b101],
            shards_ok: 2,
            shards_failed: 1,
        };
        assert!(cluster_response_matches(&degraded, &expected, 2));

        // A lost row carrying nonzero garbage violates the zero-fill
        // contract even though the bitmap disclaims it.
        let garbage =
            ClusterSpmmResult { out: vec![1.0, 2.0, 9.0, 0.0, 5.0, 6.0], ..degraded.clone() };
        assert!(!cluster_response_matches(&garbage, &expected, 2));

        // A *present* row with wrong numbers is silent corruption.
        let corrupt = ClusterSpmmResult { out: vec![1.0, 7.0, 0.0, 0.0, 5.0, 6.0], ..degraded };
        assert!(!cluster_response_matches(&corrupt, &expected, 2));
    }

    #[test]
    fn report_json_has_the_cluster_fields() {
        let r = LoadReport {
            mode: "closed".into(),
            degraded: 3,
            shard_failures: 5,
            server_addr: "127.0.0.1:7948".into(),
            server_start_epoch: 99,
            ..LoadReport::default()
        };
        let j = r.to_json();
        for key in [
            "\"degraded\":3",
            "\"shard_failures\":5",
            "\"server_addr\":\"127.0.0.1:7948\"",
            "\"server_start_epoch\":99",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn report_json_has_the_heal_fields() {
        let r = LoadReport {
            mode: "closed".into(),
            degraded_timeline: vec![0, 2, 1, 0],
            heal_ticks: 7,
            heal_repairs_completed: 4,
            heal_last_repair_epoch: 5,
            heal_rejoins: 1,
            heal_shard_states: vec!["up".into(), "down".into(), "up".into()],
            ..LoadReport::default()
        };
        let j = r.to_json();
        for key in [
            "\"degraded_timeline\":[0,2,1,0]",
            "\"heal_ticks\":7",
            "\"heal_repairs_completed\":4",
            "\"heal_last_repair_epoch\":5",
            "\"heal_rejoins\":1",
            "\"heal_shard_states\":[\"up\",\"down\",\"up\"]",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn extract_all_str_reads_the_heal_states() {
        let m = "{\"heal\":{\"states\":[\
                 {\"shard\":0,\"addr\":\"127.0.0.1:1\",\"state\":\"up\"},\
                 {\"shard\":1,\"addr\":\"127.0.0.1:2\",\"state\":\"down\"}],\
                 \"ticks\":7,\"repairs_completed\":3}}";
        let heal = m.find("\"heal\":{").map(|i| &m[i..]).unwrap_or("");
        assert_eq!(extract_u64(heal, "ticks"), 7);
        assert_eq!(extract_u64(heal, "repairs_completed"), 3);
        let states = heal.find(']').map(|i| &heal[..i]).unwrap_or("");
        assert_eq!(extract_all_str(states, "state"), vec!["up", "down"]);
        assert!(extract_all_str("", "state").is_empty());
    }

    #[test]
    fn report_json_has_the_gnn_fields() {
        let r = LoadReport {
            mode: "gnn".into(),
            gnn_precision: 2,
            gnn_layers: 2,
            gnn_accuracy: 0.75,
            gnn_layer_p50_us: vec![120, 80],
            gnn_layer_p95_us: vec![300, 200],
            ..LoadReport::default()
        };
        let j = r.to_json();
        for key in [
            "\"mode\":\"gnn\"",
            "\"gnn_precision\":2",
            "\"gnn_layers\":2",
            "\"gnn_accuracy\":0.75",
            "\"gnn_layer_p50_us\":[120,80]",
            "\"gnn_layer_p95_us\":[300,200]",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    /// Every key, in order, for one fully populated report — the string
    /// is what `to_json` produced for this value before the load driver
    /// was unified, so scripts that `sed` fields out keep working.
    #[test]
    fn report_json_key_order_is_pinned() {
        let r = LoadReport {
            mode: "gnn".into(),
            completed: 101,
            rejected: 2,
            timed_out: 3,
            errors: 4,
            cache_hits: 55,
            duration_ms: 6789,
            rps: 14.875,
            p50_us: 1100,
            p95_us: 2200,
            p99_us: 3300,
            mean_us: 1234,
            cold_requests: 5,
            cold_p99_us: 4242,
            max_batch: 6,
            wrong: 7,
            retried: 8,
            fallbacks: 9,
            fast_launches: 10,
            simulate_launches: 11,
            validate_skips: 12,
            degraded: 13,
            shard_failures: 14,
            server_addr: "127.0.0.1:7949".into(),
            server_start_epoch: 1_700_000_000_123,
            degraded_timeline: vec![0, 2, 1, 0],
            heal_ticks: 15,
            heal_repairs_completed: 16,
            heal_last_repair_epoch: 17,
            heal_rejoins: 18,
            heal_shard_states: vec!["up".into(), "down".into(), "suspect".into()],
            gnn_precision: 2,
            gnn_layers: 2,
            gnn_accuracy: 0.75,
            gnn_layer_p50_us: vec![120, 80],
            gnn_layer_p95_us: vec![300, 200],
        };
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"mode":"gnn","completed":101,"rejected":2,"timed_out":3,"errors":4,"#,
                r#""cache_hits":55,"cache_hit_rate":0.5445544554455446,"duration_ms":6789,"#,
                r#""rps":14.875,"p50_us":1100,"p95_us":2200,"p99_us":3300,"mean_us":1234,"#,
                r#""cold_requests":5,"cold_p99_us":4242,"max_batch":6,"wrong":7,"retried":8,"#,
                r#""fallbacks":9,"fast_launches":10,"simulate_launches":11,"validate_skips":12,"#,
                r#""degraded":13,"shard_failures":14,"server_addr":"127.0.0.1:7949","#,
                r#""server_start_epoch":1700000000123,"degraded_timeline":[0,2,1,0],"#,
                r#""heal_ticks":15,"heal_repairs_completed":16,"heal_last_repair_epoch":17,"#,
                r#""heal_rejoins":18,"heal_shard_states":["up","down","suspect"],"#,
                r#""gnn_precision":2,"gnn_layers":2,"gnn_accuracy":0.75,"#,
                r#""gnn_layer_p50_us":[120,80],"gnn_layer_p95_us":[300,200]}"#,
            )
        );
    }

    #[test]
    fn matrix_specs_are_deterministic() {
        let a = MatrixSpec::Uniform { rows: 64, cols: 64, nnz: 300 }.build();
        let b = MatrixSpec::Uniform { rows: 64, cols: 64, nnz: 300 }.build();
        assert_eq!(
            crate::fingerprint::Fingerprint::of(&a),
            crate::fingerprint::Fingerprint::of(&b)
        );
    }
}
