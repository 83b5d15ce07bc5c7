//! Seeded-chaos regression for the pipelined engine: fault-injection
//! replay must be byte-stable regardless of the pipeline flag, the
//! window scheduler, or steal order.
//!
//! The guarantee is structural — chaos flips [`fs_tcu::ExecMode::auto`]
//! to the simulator, which (a) disables the engine's overlapped cold
//! path (the `overlap_ok` guard requires a fast mode) and (b) makes
//! every automatic-mode launch ignore its plan's scheduler and run the
//! classic in-order simulated kernel, so chaos draw indices are consumed
//! in a deterministic order. These tests pin that structure: a pipelined
//! engine under chaos must replay bit-identically to a classic one, and
//! must never count an overlap.
//!
//! Own test binary: an installed fault plan is process-global, and the
//! scope also serializes these tests against each other.

use std::time::Duration;

use flashsparse::{outputs_match, SchedMode, DEFAULT_TOLERANCE};
use fs_chaos::{ChaosScope, FaultPlan, FaultSite};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::{EngineConfig, ServeEngine, SpmmOutcome, SpmmRequest};

/// Run `requests` identical verified requests through a single-worker
/// engine under `plan` with the given pipeline flag; returns (output
/// bits, fault report, overlap count).
fn soak(
    plan: &FaultPlan,
    pipeline: bool,
    requests: usize,
) -> (Vec<Vec<u32>>, fs_chaos::FaultReport, u64) {
    let _scope = ChaosScope::install(plan.clone());
    let e = ServeEngine::start(EngineConfig {
        workers: 1,
        max_batch: 1,
        verify: true,
        pipeline,
        breaker_threshold: u32::MAX,
        ..EngineConfig::default()
    });
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(96, 96, 800, 3));
    let info = e.register_matrix("t0", csr.clone()).expect("registered");
    let b = DenseMatrix::from_fn(96, 16, |r, c| ((r + c) % 5) as f32 * 0.25);
    let reference = csr.spmm_reference(&b);
    let mut outs = Vec::with_capacity(requests);
    for i in 0..requests {
        let outcome = e.spmm_blocking(SpmmRequest {
            tenant: "t0".to_string(),
            matrix_id: info.id,
            b: b.clone(),
            deadline: Some(Duration::from_secs(60)),
        });
        match outcome {
            Ok(SpmmOutcome::Done(resp)) => {
                assert!(
                    outputs_match(&resp.out, &reference, DEFAULT_TOLERANCE),
                    "request {i} delivered a wrong response under chaos"
                );
                outs.push(resp.out.to_f32_vec().iter().map(|v| v.to_bits()).collect());
            }
            other => panic!("request {i} failed: {other:?}"),
        }
    }
    let report = fs_chaos::report();
    let overlaps = e.overlap_count();
    e.shutdown();
    (outs, report, overlaps)
}

/// A pipelined engine under a seeded kernel-fault plan must (a) never
/// take the overlapped cold path, and (b) replay the exact fault
/// counters and output bits of the classic engine — the pipeline is
/// invisible to chaos replay.
#[test]
fn pipelined_engine_replays_chaos_identically_to_classic() {
    let plan: FaultPlan = "seed=41;frag-bit=0.001".parse().expect("plan parses");
    let (outs_classic, report_classic, ov_classic) = soak(&plan, false, 60);
    let (outs_pipe, report_pipe, ov_pipe) = soak(&plan, true, 60);
    assert_eq!(ov_classic, 0);
    assert_eq!(ov_pipe, 0, "chaos must keep the overlapped path disabled");
    assert_eq!(report_classic, report_pipe, "pipeline flag must not perturb fault draw order");
    assert_eq!(outs_classic, outs_pipe, "pipeline flag must not perturb delivered bits");
    let (evaluated, _) = report_pipe.site(FaultSite::FragBitFlip);
    assert!(evaluated > 1_000, "the soak must actually drive kernel draws, saw {evaluated}");
}

/// Re-running the same seeded plan through the pipelined engine twice
/// replays identical counters and bits — steal order cannot perturb
/// replay because chaos forces the sequential simulated kernel.
#[test]
fn pipelined_chaos_soak_replays_from_the_seed_alone() {
    let plan: FaultPlan = "seed=77;frag-bit=0.002".parse().expect("plan parses");
    let (outs_a, report_a, _) = soak(&plan, true, 60);
    let (outs_b, report_b, _) = soak(&plan, true, 60);
    assert_eq!(report_a, report_b, "fault counters must replay from the plan string");
    assert_eq!(outs_a, outs_b, "delivered bits must replay from the plan string");
}

/// An explicit scheduler in the launch plan under chaos: a
/// work-stealing scheduler must be ignored (the simulator runs in-order)
/// so outputs, counters, and fault draws match the sequential call
/// bit-for-bit.
#[test]
fn sched_entry_points_ignore_the_scheduler_under_chaos() {
    use flashsparse::{spmm_with, ExecPlan, TcuPrecision, ThreadMapping};
    use fs_format::MeBcrs;
    use fs_precision::F16;

    let plan: FaultPlan = "seed=13;frag-bit=0.005".parse().expect("plan parses");
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(80, 80, 600, 9));
    let me = MeBcrs::from_csr(&csr.cast::<F16>(), F16::SPEC);
    let b = DenseMatrix::<F16>::from_fn(80, 16, |r, c| ((r * 3 + c) % 7) as f32 * 0.25);

    let run = |sched: SchedMode| {
        let _scope = ChaosScope::install(plan.clone());
        let plan = ExecPlan { sched, ..ExecPlan::auto() };
        let (out, counters) = spmm_with(&me, &b, ThreadMapping::MemoryEfficient, plan);
        let bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_f32().to_bits()).collect();
        (bits, counters, fs_chaos::report())
    };
    let (bits_seq, k_seq, rep_seq) = run(SchedMode::Sequential);
    let (bits_ws, k_ws, rep_ws) = run(SchedMode::WorkStealing { workers: 4 });
    assert_eq!(bits_seq, bits_ws, "steal order must not perturb chaos output bits");
    assert_eq!(k_seq, k_ws, "steal order must not perturb counters");
    assert_eq!(rep_seq, rep_ws, "steal order must not perturb fault draws");
    let (evaluated, _) = rep_seq.site(FaultSite::FragBitFlip);
    assert!(evaluated > 0, "the plan must actually evaluate kernel draws");
}
