//! `fs-perf`: one layered benchmark of the FlashSparse workspace.
//!
//! `run` measures one workload in this process and prints the result object
//! `BENCHMARK.json` describes; `all` and `check` run every workload, each in
//! a child process of its own. See `perf/README.md`.

mod compare;
mod layers;
mod metrics;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Value, END_TO_END, RUN_SECONDS};
use trace::Tracer;
use workloads::{Run, Sizes, Workload, WARMUP_STEPS};

/// Set-ups an untraced run performs; `setup_s` is their median.
const SETUPS: usize = 5;
/// Shares of `--seconds` a traced run spends on its untraced and its
/// traced window; the probes take about as long as the rest.
const UNTRACED_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.5;

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Ops that completed and verified inside the measuring window.
    pub samples: usize,
    pub values: Vec<Value>,
}

/// Where generated files go: `perf/out/`.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// Set the workload up and warm it; returns it with the seconds that took,
/// not counting input generation and output checks of the warm-up steps.
fn timed_setup(
    name: &str,
    seed: u64,
    sz: Sizes,
    tr: &mut Tracer,
    totals: &mut Run,
) -> Option<(Box<dyn Workload>, f64)> {
    let t = Instant::now();
    let mut w = workloads::setup(name, seed, sz, tr)?;
    let mut warm = Run::default();
    for _ in 0..WARMUP_STEPS {
        w.step(&mut Tracer::new(false), &mut warm);
    }
    let setup_s = t.elapsed().saturating_sub(warm.outside).as_secs_f64();
    totals.attempted += warm.attempted;
    totals.failed += warm.failed;
    Some((w, setup_s))
}

/// Step `w` until `seconds` of measured time have passed; returns what the
/// window collected and its measured length. Time spent outside does not
/// count.
fn measure(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64) -> (Run, f64) {
    let window = Duration::from_secs_f64(seconds);
    let mut run = Run::default();
    let t = Instant::now();
    loop {
        w.step(tr, &mut run);
        let measured = t.elapsed().saturating_sub(run.outside);
        if measured >= window {
            return (run, measured.as_secs_f64());
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// The untraced run: end-to-end metrics.
fn run_end_to_end(name: &str, seed: u64, seconds: f64, sz: Sizes) -> Option<Outcome> {
    let mut totals = Run::default();
    let mut off = Tracer::new(false);
    let (mut w, first_setup_s) = timed_setup(name, seed, sz, &mut off, &mut totals)?;
    let (run, window_s) = measure(w.as_mut(), &mut off, seconds);
    // Read here: this is what one set-up and its serving hold. Each further
    // set-up starts threads of its own, and what their malloc arenas keep
    // added 10 MiB to `serve_tcp` that differed from run to run.
    let peak_rss_mb = peak_rss_mb();
    let sim_gpu_us = w.sim_gpu_us();
    w.finish();
    let mut setups = vec![first_setup_s];
    for _ in 1..SETUPS {
        let (w, setup_s) = timed_setup(name, seed, sz, &mut off, &mut totals)?;
        w.finish();
        setups.push(setup_s);
    }

    let mut sorted = run.latencies_ms;
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| if sorted.is_empty() { 0.0 } else { stats::percentile(&sorted, p) };
    let value = |name: &str| match name {
        "setup_s" => stats::median(&setups),
        "op_p50_ms" => stats::median(&sorted),
        "op_p95_ms" => at(0.95),
        "ops_per_s" => sorted.len() as f64 / window_s,
        "sim_gpu_us" => sim_gpu_us,
        "peak_rss_mb" => peak_rss_mb,
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    Some(Outcome {
        attempted: totals.attempted + run.attempted,
        failed: totals.failed + run.failed,
        samples: sorted.len(),
        values: END_TO_END
            .iter()
            .map(|m| Value { name: m.name, value: value(m.name), unit: m.unit })
            .collect(),
    })
}

/// The traced run: one set-up under spans, a short untraced window (the
/// base of the tracing overhead), the traced window, then the layer probes
/// on the workload's inputs. Writes the chrome trace when `trace_to` is set.
fn run_per_layer(
    name: &str,
    seed: u64,
    seconds: f64,
    sz: Sizes,
    trace_to: Option<PathBuf>,
) -> Option<Outcome> {
    let mut totals = Run::default();
    let mut tr = Tracer::new(true);
    let (mut w, _) = timed_setup(name, seed, sz, &mut tr, &mut totals)?;
    let (plain, _) = measure(w.as_mut(), &mut Tracer::new(false), seconds * UNTRACED_SHARE);
    let (traced, _) = measure(w.as_mut(), &mut tr, seconds * TRACED_SHARE);
    let (csr, n) = w.probe_inputs();
    let probe_shed = layers::probe_all(csr, n, sz, seed, &mut tr);
    let own_shed = w.shed();
    let shed = [own_shed[0] + probe_shed[0], own_shed[1] + probe_shed[1]];
    let p50s = [stats::median(&plain.latencies_ms), stats::median(&traced.latencies_ms)];
    layers::derive(csr, n, sz, shed, p50s, &mut tr);
    w.finish();

    if let Some(dir) = trace_to {
        let pid = metrics::workload_names().position(|w| w == name).unwrap_or(0) + 1;
        let path = dir.join(format!("TRACE_{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.chrome_trace(pid, name)))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    Some(Outcome {
        attempted: totals.attempted + plain.attempted + traced.attempted,
        failed: totals.failed + plain.failed + traced.failed,
        samples: traced.latencies_ms.len(),
        values: layers::values(&tr),
    })
}

/// Print one run the way both a reader and `all`/`check` parse it: a header
/// that echoes the fixed constants, one `metric` line per value (an untraced
/// run adds `failed_share`, which the result object carries as `attempted`
/// and `failed`), a `samples` line, and last the result object.
fn print_outcome(name: &str, seed: u64, seconds: f64, traced: bool, o: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {name} seed {seed} seconds {seconds} traced {} workers {} connections {} \
         burst {} warmup_steps {WARMUP_STEPS} setups {SETUPS} nproc {nproc}",
        u8::from(traced),
        workloads::WORKERS,
        workloads::CONNECTIONS,
        workloads::BURST,
    );
    for v in &o.values {
        println!("metric {} {} {}", v.name, v.value, v.unit);
    }
    if !traced {
        let share = if o.attempted == 0 { 1.0 } else { o.failed as f64 / o.attempted as f64 };
        println!("metric failed_share {share} ratio");
    }
    println!("samples {} attempted {} failed {}", o.samples, o.attempted, o.failed);
    println!("{}", metrics::result_json(o.attempted, o.failed, &o.values));
}

/// `--key value` pairs after the subcommand; `--traced` alone means
/// `--trace 1`.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key =
                key.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {key}"))?;
            if key == "traced" {
                pairs.push(("trace".to_string(), "1".to_string()));
            } else {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_string(), value.clone()));
            }
        }
        Ok(Args(pairs))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot read {v}")),
            None => Ok(default),
        }
    }
}

const USAGE: &str = "usage: fs-perf <run|all|check|sweep|manifest> [--flag value]...
  run      --workload NAME --seed N [--seconds S] [--trace 0|1 | --traced]
  all      [--seed N] [--seconds S]   every workload untraced then traced, then the sweep
  check    [--seed N] [--seconds S]   two interleaved sets; exits 1 on a breach
  sweep    [--seed N]                 structure, width and size sweep
  manifest                            print BENCHMARK.json";

fn dispatch(command: &str, args: &Args) -> Result<bool, String> {
    let seed: u64 = args.get("seed", 11)?;
    let seconds: f64 = args.get("seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 600]"));
    }
    match command {
        "run" => {
            let name: String = args.get("workload", String::new())?;
            let traced = match args.get("trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: must be 0 or 1")),
            };
            let outcome = if traced {
                run_per_layer(&name, seed, seconds, Sizes::FULL, Some(out_dir()))
            } else {
                run_end_to_end(&name, seed, seconds, Sizes::FULL)
            }
            .ok_or_else(|| {
                let names: Vec<&str> = metrics::workload_names().collect();
                format!("--workload {name:?}: expected one of {names:?}")
            })?;
            print_outcome(&name, seed, seconds, traced, &outcome);
            Ok(outcome.failed == 0)
        }
        "all" => compare::all(seed, seconds, &out_dir()),
        "check" => compare::check(seed, seconds),
        "sweep" => {
            sweep::run(seed);
            Ok(true)
        }
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| dispatch(command, &args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("fs-perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    /// Every workload, untraced and traced, for a fraction of a second on
    /// reduced inputs: every metric is reported and nothing fails.
    #[test]
    fn smoke_run_of_every_workload() {
        for name in metrics::workload_names() {
            let e2e = run_end_to_end(name, 5, 0.3, Sizes::SMOKE).expect("known workload");
            assert_eq!(e2e.failed, 0, "{name}");
            assert!(e2e.samples > 0 && e2e.attempted as usize >= e2e.samples, "{name}");
            assert_eq!(e2e.values.len(), END_TO_END.len());
            for v in &e2e.values {
                assert!(v.value.is_finite() && v.value > 0.0, "{name} {} = {}", v.name, v.value);
            }

            let layers = run_per_layer(name, 5, 0.7, Sizes::SMOKE, None).expect("known workload");
            assert_eq!(layers.failed, 0, "{name}");
            assert_eq!(layers.values.len(), PER_LAYER.len());
            let get = |metric: &str| {
                layers.values.iter().find(|v| v.name == metric).map(|v| v.value).expect("reported")
            };
            for m in PER_LAYER.iter().filter(|m| m.unit == "ms") {
                assert!(get(m.name) > 0.0, "{name} {} is a time and was measured", m.name);
            }
            assert!(get("driver.span_coverage") > 0.5, "{name} {}", get("driver.span_coverage"));
            assert_eq!(get("driver.samples") as usize, layers.samples, "{name}");
            assert_eq!(get("serve.rejected") + get("serve.timed_out"), 0.0, "{name}");
            assert!(get("tcu.mma_per_op") > 0.0 && get("format.fill_ratio") > 0.0, "{name}");
        }
        assert!(run_end_to_end("no_such_workload", 5, 0.1, Sizes::SMOKE).is_none());
    }

    #[test]
    fn the_same_seed_gives_the_same_counted_metrics() {
        let sim = |seed| {
            let o =
                run_end_to_end("prepare_cold", seed, 0.05, Sizes::SMOKE).expect("known workload");
            o.values.iter().find(|v| v.name == "sim_gpu_us").map(|v| v.value).expect("reported")
        };
        assert_eq!(sim(3), sim(3));
        assert_ne!(sim(3), sim(4));
    }

    #[test]
    fn args_take_the_last_value_and_reject_junk() {
        let raw: Vec<String> =
            ["--seed", "3", "--traced", "--seed", "4"].iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&raw).expect("well formed");
        assert_eq!(args.get("seed", 0u64), Ok(4));
        assert_eq!(args.get("trace", 0u8), Ok(1));
        assert_eq!(args.get("seconds", 7.5f64), Ok(7.5));
        assert!(Args::parse(&["seed".to_string()]).is_err());
        assert!(Args::parse(&["--seed".to_string()]).is_err());
        assert!(Args::parse(&["--seed".to_string(), "x".to_string()])
            .expect("pairs")
            .get("seed", 0u64)
            .is_err());
    }
}
