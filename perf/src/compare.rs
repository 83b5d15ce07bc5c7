//! `all` and `check`: every workload in a child process of its own (so
//! `peak_rss_mb` is per workload), and what the sets say together.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::metrics::{workload_names, Better, END_TO_END, PER_LAYER};
use crate::stats::percentile_supported;
use crate::trace::merge_chrome_traces;

/// `driver.span_coverage` below this fails `check`: unattributed time is a
/// finding.
const MIN_COVERAGE: f64 = 0.90;

/// What a child's stdout said.
struct Report {
    values: BTreeMap<String, f64>,
    samples: usize,
    /// Whether the child exited with 0: it does not when an op failed.
    passed: bool,
    text: String,
}

impl Report {
    fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(f64::NAN)
    }

    /// Read what a child printed: its `metric` lines and its `samples` line.
    fn parse(text: String, passed: bool) -> Result<Report, String> {
        let mut report = Report { values: BTreeMap::new(), samples: 0, passed, text };
        for line in report.text.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["metric", name, value, _unit] => {
                    let value = value.parse().map_err(|_| format!("bad metric line: {line}"))?;
                    report.values.insert((*name).to_string(), value);
                }
                ["samples", samples, ..] => {
                    report.samples =
                        samples.parse().map_err(|_| format!("bad samples line: {line}"))?;
                }
                _ => {}
            }
        }
        Ok(report)
    }
}

/// Run `fs-perf <args>` as a child, wait for it, and read its report. A
/// child that exits nonzero after reporting (an op failed) is a report that
/// did not pass; one that printed no metric (bad arguments, a panic) is an
/// error.
fn child(args: &[&str]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn fs-perf {args:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let report = Report::parse(text, out.status.success())?;
    if !report.passed && report.values.is_empty() {
        return Err(format!("fs-perf {args:?} exited with {}\n{}", out.status, report.text));
    }
    Ok(report)
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let args = [
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ];
    child(&args)
}

/// Every workload untraced, then traced, then the sweep; every metric
/// printed by name with its unit. The traces are merged into
/// `TRACE_perf.json`.
pub fn all(seed: u64, seconds: f64, out_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for traced in [false, true] {
        println!(
            "== {} pass, {seconds} s per workload ==",
            if traced { "traced" } else { "end-to-end" }
        );
        for name in workload_names() {
            let report = run_child(name, seed, seconds, traced)?;
            print!("{}", report.text);
            ok &= report.passed;
        }
    }
    println!("== sweep ==");
    print!("{}", child(&["sweep", "--seed", &seed.to_string()])?.text);

    let traces: Vec<String> = workload_names()
        .map(|name| {
            let path = out_dir.join(format!("TRACE_{name}.json"));
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let merged = out_dir.join("TRACE_perf.json");
    std::fs::write(&merged, merge_chrome_traces(&traces))
        .map_err(|e| format!("write {}: {e}", merged.display()))?;
    println!("trace {}", merged.display());
    Ok(ok)
}

/// Whether `x` is a number no greater than `limit`; a value that is missing
/// (NaN) on either side is not.
fn at_most(x: f64, limit: f64) -> bool {
    x <= limit
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two full sets on one seed, the sets interleaved workload by workload so
/// host drift falls on both. Prints every difference against its bound and
/// fails on a breach, a failed op, a thin tail or unattributed op time.
pub fn check(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let mut flag = |bad: bool| {
        ok &= !bad;
        if bad {
            "BREACH"
        } else {
            "ok"
        }
    };
    for name in workload_names() {
        let mut e2e = Vec::new();
        let mut layers = Vec::new();
        for _set in 0..2 {
            e2e.push(run_child(name, seed, seconds, false)?);
            layers.push(run_child(name, seed, seconds, true)?);
        }
        println!("== {name} ==");
        for m in &END_TO_END {
            let (a, b) = (e2e[0].get(m.name), e2e[1].get(m.name));
            let diff = worse_by(a, b, m.better);
            let bad = if m.exact { a != b } else { !at_most(diff.abs(), m.bound) };
            let bound = if m.exact { 0.0 } else { m.bound };
            println!(
                "{:<28} {a:>14.4} {b:>14.4} {:<6} diff {diff:>+8.4} bound {bound:<5} {}",
                m.name,
                m.unit,
                flag(bad)
            );
        }
        let (a, b) = (e2e[0].get("failed_share"), e2e[1].get("failed_share"));
        println!(
            "{:<28} {a:>14.4} {b:>14.4} {:<6} must be 0 {}",
            "failed_share",
            "ratio",
            flag(a != 0.0 || b != 0.0)
        );
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (layers[0].get(m.name), layers[1].get(m.name));
            println!("{:<28} {a:>14.4} {b:>14.4} {:<6} exact {}", m.name, m.unit, flag(a != b));
        }
        for (set, (e, l)) in e2e.iter().zip(&layers).enumerate() {
            let coverage = l.get("driver.span_coverage");
            println!(
                "set {set}: passed {} samples {} span_coverage {coverage:.4} {}",
                e.passed && l.passed,
                e.samples,
                flag(
                    !(e.passed && l.passed)
                        || !percentile_supported(e.samples, 0.95)
                        || !at_most(MIN_COVERAGE, coverage)
                )
            );
        }
    }
    println!("check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_signed_by_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!(worse_by(10.0, f64::NAN, Better::Lower).is_nan());
    }

    #[test]
    fn a_run_with_a_failed_op_is_a_report_that_did_not_pass() {
        let text = "workload x seed 1\nmetric op_p50_ms 1.5 ms\nmetric failed_share 0.25 ratio\n\
                    samples 3 attempted 4 failed 1\n{\"correct\": false}\n";
        let report = Report::parse(text.to_string(), false).expect("well formed");
        assert!(!report.passed);
        assert_eq!((report.get("op_p50_ms"), report.get("failed_share")), (1.5, 0.25));
        assert_eq!(report.samples, 3);
        assert!(report.get("op_p95_ms").is_nan());
        assert!(Report::parse("metric x y ms\n".to_string(), true).is_err());
    }
}
