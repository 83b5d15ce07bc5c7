//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is printed
//! from these tables (`fs-perf manifest`), so the file and the program
//! cannot disagree.

use std::fmt::Write as _;

/// Seconds one run measures; `run_seconds` of `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 18;

/// The workloads' names, in the order every command runs them.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

/// Workload name and the reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "spmm_warm",
        "pre-tuned, pre-translated R-MAT SpMM at N=128: the fast-path kernel and its two casts do all the work, serve none",
    ),
    (
        "sddmm_warm",
        "SDDMM with the same R-MAT as mask, K=32: same format and window machinery with a sparse output, so an SpMM gain bought at SDDMM's cost shows",
    ),
    (
        "prepare_cold",
        "auto_tune, translate and first SpMM on a never-seen matrix per op: the inspector cost; tuner and format dominate, the kernel does little",
    ),
    (
        "serve_tcp",
        "closed-loop SpMM over one TCP connection with 2 MiB each way: codec, checksum and socket are about half the latency, batches are always 1",
    ),
    (
        "engine_burst",
        "in-process engine with 8 requests outstanding on one matrix: queue wait and micro-batching under concurrency, no socket",
    ),
    (
        "gnn_infer",
        "served 2-layer FP16 GCN forward pass that always misses the embedding cache: the paper's case study; re-translates the adjacency per layer",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of either table.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse.
    pub bound: f64,
    /// Computed from counters or sizes: two runs on one seed must agree
    /// exactly, whatever the host does.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound, exact: false }
}

/// Every workload reports all of these with `--trace 0`, and `failed_share`
/// beside them as a printed line: it must stay 0, `BENCHMARK.json` admits no
/// metric that is ever 0, so the result's `attempted` and `failed` carry it.
/// The timing and memory bounds are the most the contract allows: ten raw
/// runs of one binary on this host spread by up to 17% (`BASELINE.md`), and
/// a bound below the spread would fail the benchmark, not the change.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p95_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    Metric { name: "sim_gpu_us", unit: "us", better: Better::Lower, bound: 0.06, exact: true },
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

const fn timed(name: &'static str) -> Metric {
    measured(name, "ms", Better::Lower)
}

const fn measured(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact: true }
}

/// Every workload reports all of these with `--trace 1`. A name ending in
/// `_ms` is the median duration of the spans of that name without the
/// suffix; any other name is the mean of the values recorded under it.
pub const PER_LAYER: [Metric; 43] = [
    timed("matrix.gen_ms"),
    timed("matrix.reference_ms"),
    timed("precision.cast_in_ms"),
    timed("precision.cast_out_ms"),
    timed("format.translate_ms"),
    exact("format.footprint_bytes", "bytes", Better::Lower),
    exact("format.fill_ratio", "ratio", Better::Higher),
    timed("core.tune_ms"),
    timed("core.spmm_kernel_ms"),
    measured("core.spmm_gflops_equiv", "GFLOP/s", Better::Higher),
    timed("core.sddmm_kernel_ms"),
    measured("core.sddmm_gflops_equiv", "GFLOP/s", Better::Higher),
    timed("core.overlapped_ms"),
    exact("tcu.mma_per_op", "count", Better::Lower),
    exact("tcu.sectors_per_op", "count", Better::Lower),
    exact("tcu.bytes_per_op", "bytes", Better::Lower),
    exact("tcu.mma_utilisation", "ratio", Better::Higher),
    exact("tcu.sim_gflops_h100", "GFLOP/s", Better::Higher),
    timed("baselines.csr_ms"),
    timed("baselines.rode_ms"),
    measured("baselines.fast_over_csr", "ratio", Better::Lower),
    exact("baselines.sim_speedup_vs_dtc", "ratio", Better::Higher),
    exact("baselines.sim_speedup_vs_rode", "ratio", Better::Higher),
    timed("serve.queue_ms"),
    timed("serve.service_ms"),
    measured("serve.batch_mean", "count", Better::Higher),
    measured("serve.cache_hit_share", "ratio", Better::Higher),
    timed("serve.wire_ms"),
    timed("serve.inproc_ms"),
    timed("serve.load_ms"),
    timed("serve.first_request_ms"),
    measured("serve.rejected", "count", Better::Lower),
    measured("serve.timed_out", "count", Better::Lower),
    timed("gnn.layer0_ms"),
    timed("gnn.layer1_ms"),
    timed("gnn.offline_forward_ms"),
    measured("gnn.serve_overhead_share", "ratio", Better::Lower),
    timed("gnn.cache_hit_ms"),
    measured("driver.samples", "count", Better::Higher),
    measured("driver.span_coverage", "ratio", Better::Higher),
    measured("driver.trace_overhead_share", "ratio", Better::Lower),
    measured("driver.op_p50_untraced", "ms", Better::Lower),
    measured("driver.op_p50_traced", "ms", Better::Lower),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    let rows = |metrics: &[Metric], bounded: bool| -> String {
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                let bound =
                    if bounded { format!(", \"bound\": {}", m.bound) } else { String::new() };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect();
        rows.join(",\n")
    };
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows(&END_TO_END, true));
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows(&PER_LAYER, false));
    out.push_str("}\n");
    out
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result object the driver reads from the last line of stdout.
pub fn result_json(attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", v.name, v.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{name}: {}", why.len());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok(&"x".repeat(65)));
        assert!(!unit_ok("") && !unit_ok("µs") && unit_ok("GFLOP/s"));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is reported");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `fs-perf manifest > BENCHMARK.json`");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            3,
            0,
            &[
                Value { name: "op_p50_ms", value: 1.25, unit: "ms" },
                Value { name: "x", value: f64::NAN, unit: "s" },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(result_json(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
