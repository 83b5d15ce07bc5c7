//! What a worker does with a batch once the queue has handed it over:
//! resolve the translated format (cache hit, overlapped cold path, or
//! tune + translate), launch each SpMM — through the verify-and-fall-back
//! ladder and the per-matrix circuit breaker when the engine runs with
//! `verify` on — or run a whole GNN inference over the job's graph.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use flashsparse::{
    auto_tune, spmm_overlapped, spmm_resilient, ExecMode, FallbackLevel, SchedMode,
    TranslatedMatrix, TuneChoice, VerifyPolicy,
};
use fs_chaos::{BreakerConfig, CircuitBreaker};
use fs_matrix::DenseMatrix;
use fs_tcu::KernelCounters;

use crate::cache::CachedFormat;
use crate::engine::Inner;
use crate::gnn_infer::{GnnError, GnnInferRequest, GnnInferResponse};
use crate::queue::{Job, Work};
use crate::registry::Registered;

/// One executed SpMM: the output plus its provenance.
pub(crate) struct Executed {
    pub(crate) out: DenseMatrix<f32>,
    pub(crate) counters: KernelCounters,
    pub(crate) fallback_level: FallbackLevel,
    pub(crate) verified: bool,
}

/// The operand of an SpMM job; the poison hook panics here, inside the
/// batch unwind boundary.
fn operand(job: &Job) -> &DenseMatrix<f32> {
    match &job.work {
        Work::Spmm(b) => b,
        _ => panic!("poison request (test hook)"),
    }
}

/// One GNN inference over graph `matrix_id` — the job's whole forward
/// pass, on the worker that dequeued it.
pub(crate) fn run_inference(
    inner: &Inner,
    matrix_id: u64,
    req: &GnnInferRequest,
) -> Result<GnnInferResponse, GnnError> {
    if inner.poison_gnn.swap(false, Ordering::SeqCst) {
        panic!("poison inference (test hook)");
    }
    let reg = inner.matrices.read().get(matrix_id).ok_or(GnnError::UnknownGraph(matrix_id))?;
    inner.gnn.infer(
        req.model_id,
        &reg.csr,
        inner.cfg.gpu,
        inner.cfg.verify,
        req.precision,
        &req.node_ids,
        &req.features,
    )
}

/// Resolve the translated format for the batch (cache hit or
/// translate + tune), then run every request against it — through the
/// verify-and-fall-back ladder when the engine runs with `verify` on.
pub(crate) fn execute_batch(inner: &Arc<Inner>, batch: &[Job]) -> (Vec<Executed>, bool) {
    let _span = fs_trace::span(fs_trace::Site::ServeExecute);
    let matrix_id = batch[0].matrix_id;
    let reg = inner
        .matrices
        .read()
        .get(matrix_id)
        .unwrap_or_else(|| panic!("matrix {matrix_id} disappeared")); // lint: allow-panic - registration precedes admission; caught by the batch unwind boundary

    // An open breaker routes the whole batch to the trusted scalar path
    // without touching the TCU (or the cache — no format resolution).
    if inner.cfg.verify && breaker_bypasses(inner, matrix_id) {
        inner.breaker_bypasses.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let outputs = batch
            .iter()
            .map(|job| Executed {
                out: reg.csr.spmm_reference(operand(job)),
                counters: KernelCounters::default(),
                fallback_level: FallbackLevel::Scalar,
                verified: true,
            })
            .collect();
        return (outputs, false);
    }

    let all_spmm = batch.iter().all(|j| matches!(j.work, Work::Spmm(_)));
    let n_hint = match &batch[0].work {
        Work::Spmm(b) => b.cols().max(1),
        _ => 1,
    };
    // One mode decision per batch: the switches it reads are process-wide
    // and launch-independent, so every launch below shares it.
    let mode = ExecMode::auto();
    // The overlapped cold path only serves plain fast-mode SpMM: verify
    // needs the resilient ladder, simulate needs the classic dispatch,
    // and poison test hooks must panic inside the ordinary batch body.
    let overlap_ok = inner.cfg.pipeline && !inner.cfg.verify && mode.is_fast() && all_spmm;
    let (format, cache_hit) = if overlap_ok {
        // Peek the cache directly: a hit is the ordinary warm path, a
        // miss hands the whole batch to the overlapped engine (which
        // does its own translate), so resolve_format's tune+translate
        // must not run here.
        let peek = inner.cache.lock().get(&reg.fingerprint);
        match peek {
            Some(hit) => {
                fs_trace::add(fs_trace::TraceCounter::CacheHits, 1);
                (hit, true)
            }
            None => {
                fs_trace::add(fs_trace::TraceCounter::CacheMisses, 1);
                return execute_overlapped(inner, &reg, batch, n_hint);
            }
        }
    } else {
        resolve_format(inner, &reg, n_hint)
    };
    match mode {
        ExecMode::Fast => inner.exec_fast.fetch_add(batch.len() as u64, Ordering::Relaxed),
        ExecMode::Simulate => inner.exec_simulate.fetch_add(batch.len() as u64, Ordering::Relaxed),
    };
    if mode.is_fast() && format.translated.is_validated() {
        // Fast launches on a witnessed cached format skip the per-launch
        // validation walk entirely — the cache's validate-once payoff.
        inner.validate_skips.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    let policy = VerifyPolicy {
        sample_rows: inner.cfg.verify_sample_rows,
        tolerance: inner.cfg.verify_tolerance,
    };
    let outputs = batch
        .iter()
        .map(|job| {
            let b = operand(job);
            if inner.cfg.verify {
                let (out, counters, report) = spmm_resilient(
                    &reg.csr,
                    &format.translated,
                    &format.choice,
                    Some(reg.fallback_format()),
                    b,
                    &policy,
                );
                record_resilience(inner, matrix_id, &report);
                Executed { out, counters, fallback_level: report.level, verified: true }
            } else {
                let (out, counters) = format.translated.spmm_f32(b, format.choice.mapping);
                Executed { out, counters, fallback_level: FallbackLevel::Tuned, verified: false }
            }
        })
        .collect();
    (outputs, cache_hit)
}

/// The overlapped cold path: the first request of the batch executes via
/// [`spmm_overlapped`] — SpMM runs over ME-BCRS slabs as the translation
/// of the *next* slab proceeds concurrently, with no auto-tune on the
/// critical path — and the remaining requests reuse the assembled
/// translation. The FALLBACK-variant result is cached immediately so the
/// very next request hits, and a background thread upgrades the entry to
/// the auto-tuned variant. Responses carry `FallbackLevel::Default`
/// because that is what ran: the default variant, not the tuned one.
fn execute_overlapped(
    inner: &Arc<Inner>,
    reg: &Arc<Registered>,
    batch: &[Job],
    n_hint: usize,
) -> (Vec<Executed>, bool) {
    inner.overlaps.fetch_add(1, Ordering::Relaxed);
    inner.exec_fast.fetch_add(batch.len() as u64, Ordering::Relaxed);
    let choice = TuneChoice::FALLBACK;
    let sched = SchedMode::auto();
    let (first_out, first_counters, translated) =
        spmm_overlapped(&reg.csr, operand(&batch[0]), &choice, sched);
    let format = CachedFormat { translated, choice };
    if format.translated.is_validated() {
        // The slab translations were validated as they streamed in; the
        // assembled format keeps the witness, so every launch in this
        // batch skips the per-launch validation walk.
        inner.validate_skips.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    let executed = |(out, counters)| Executed {
        out,
        counters,
        fallback_level: FallbackLevel::Default,
        verified: false,
    };
    let mut outputs = Vec::with_capacity(batch.len());
    outputs.push(executed((first_out, first_counters)));
    for job in &batch[1..] {
        outputs.push(executed(format.translated.spmm_f32(operand(job), choice.mapping)));
    }
    if !inner.cfg.cold {
        inner.cache.lock().insert(reg.fingerprint, format);
        spawn_background_tune(inner, Arc::clone(reg), n_hint);
    }
    (outputs, false)
}

/// Upgrade the cached FALLBACK entry to the auto-tuned variant off the
/// request path. Shutdown is checked before each expensive step so a
/// draining engine is not held up by a tuner mid-flight; a failed spawn
/// just skips the upgrade (the FALLBACK entry keeps serving).
fn spawn_background_tune(inner: &Arc<Inner>, reg: Arc<Registered>, n_hint: usize) {
    let tuner_inner = Arc::clone(inner);
    let spawned = thread::Builder::new().name("fs-serve-tuner".to_string()).spawn(move || {
        if tuner_inner.jobs.is_closed() {
            return;
        }
        let choice = auto_tune(&reg.csr, n_hint, tuner_inner.cfg.gpu);
        if tuner_inner.jobs.is_closed() {
            return;
        }
        let translated = TranslatedMatrix::translate(&reg.csr, &choice);
        tuner_inner.cache.lock().replace(reg.fingerprint, CachedFormat { translated, choice });
    });
    let Ok(handle) = spawned else { return };
    // Reap finished tuners while we hold the lock anyway, so the handle
    // vector stays bounded by the number of in-flight upgrades.
    let mut background = inner.background.lock();
    let mut keep = Vec::with_capacity(background.len() + 1);
    for h in background.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            keep.push(h);
        }
    }
    keep.push(handle);
    *background = keep;
}

fn breaker_config(inner: &Inner) -> BreakerConfig {
    BreakerConfig { threshold: inner.cfg.breaker_threshold, cooldown: inner.cfg.breaker_cooldown }
}

fn breaker_bypasses(inner: &Inner, matrix_id: u64) -> bool {
    let cfg = breaker_config(inner);
    let mut breakers = inner.breakers.lock();
    breakers
        .entry(matrix_id)
        .or_insert_with(|| CircuitBreaker::new(cfg))
        .should_bypass(Instant::now())
}

fn record_resilience(inner: &Inner, matrix_id: u64, report: &flashsparse::ResilientReport) {
    inner.verify_failures.fetch_add(u64::from(report.verify_failures), Ordering::Relaxed);
    match report.level {
        FallbackLevel::Tuned => {}
        FallbackLevel::Default => {
            inner.fallbacks_default.fetch_add(1, Ordering::Relaxed);
        }
        FallbackLevel::Scalar => {
            inner.fallbacks_scalar.fetch_add(1, Ordering::Relaxed);
        }
    }
    let cfg = breaker_config(inner);
    let mut breakers = inner.breakers.lock();
    let breaker = breakers.entry(matrix_id).or_insert_with(|| CircuitBreaker::new(cfg));
    if report.verify_failures > 0 {
        breaker.record_failure(Instant::now());
        drop(breakers);
        // The matrix's kernel output failed verification, so GNN
        // embeddings aggregated over it are no longer trusted either:
        // drop them so the next inference recomputes from scratch
        // (possibly on the scalar path the breaker now routes to).
        inner.gnn.invalidate_matrix(matrix_id);
    } else {
        breaker.record_success();
    }
}

fn resolve_format(inner: &Inner, reg: &Registered, n_hint: usize) -> (Arc<CachedFormat>, bool) {
    if let Some(hit) = inner.cache.lock().get(&reg.fingerprint) {
        fs_trace::add(fs_trace::TraceCounter::CacheHits, 1);
        return (hit, true);
    }
    fs_trace::add(fs_trace::TraceCounter::CacheMisses, 1);
    // Miss: translate and tune *outside* the cache lock — this is the
    // expensive path the cache exists to amortize.
    let choice = auto_tune(&reg.csr, n_hint, inner.cfg.gpu);
    let translated = TranslatedMatrix::translate(&reg.csr, &choice);
    let arc = inner.cache.lock().insert(reg.fingerprint, CachedFormat { translated, choice });
    (arc, false)
}
