#!/usr/bin/env bash
# CI gate for the workspace: formatting, the fs-analyze pass (lint rules
# included), a release build, and the full test suite. Any failure
# aborts the run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo run -p analyze -- check (baseline gate)"
# Token-level workspace analyses (the five per-file lint rules, then
# lock-order, atomic-ordering, protocol, trace-site, counter parity)
# gated against the committed baseline:
# findings not in analyze-baseline.json fail, and so do stale baseline
# entries that no longer fire. After reviewing a finding you intend to
# accept, run:
#   cargo run -p analyze -- check --baseline analyze-baseline.json --update-baseline
# and commit the regenerated file.
cargo run -p analyze --quiet -- check --json ANALYZE_findings.json \
    --baseline analyze-baseline.json

echo "== cargo build --release"
cargo build --release

echo "== fs-perf compiles against the workspace"
# perf/ is its own workspace with path dependencies on crates/*; it is
# the frozen benchmark (BENCHMARK.json), so an API change that breaks it
# must fail here, not in the benchmark pipeline.
cargo build --release --manifest-path perf/Cargo.toml --target-dir target/perf

echo "== cargo test -q"
cargo test -q

echo "== exhaustive rounding sweep (release)"
# fs-precision has one rounding implementation (straight-line integer
# code); the branch-per-case conversions it replaced are the oracle in
# its lattice_identity test, compared here on all 2^32 f32 patterns for
# FP16 and TF32. Ignored in the debug run above: it needs --release.
cargo test --release -q -p fs-precision -- --ignored

echo "== cargo doc (warnings denied) + doctests"
# Every crate front page must document itself cleanly, and the runnable
# examples in those pages must actually run.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
cargo test -q --workspace --doc

echo "== exec-mode perf baseline"
# Record the fast-path vs simulator wall-clock baseline. The fast path
# is bit-identical (enforced by the exec_mode_props suite above), so the
# only question here is how much host time it saves; the JSON keeps a
# tracked record per dataset x precision x mode.
./target/release/spmm_cli --bench-json BENCH_spmm.json
MIN_SPEEDUP=$(sed -n 's/.*"min_speedup":\([0-9.]*\).*/\1/p' BENCH_spmm.json)
if ! awk -v s="$MIN_SPEEDUP" 'BEGIN { exit !(s >= 3.0) }'; then
  echo "ci: fast-path speedup regressed below 3x (min ${MIN_SPEEDUP}x)" >&2
  exit 1
fi
echo "ci: fast-path min speedup ${MIN_SPEEDUP}x"
# The same file times the fast path against the CSR row-parallel
# CUDA-core baseline on one served-shape launch (R-MAT scale 12, N=128,
# f32 in and out), held at 3x. The ratio is bimodal on a 2-vCPU host
# (1.05-1.16 in one hour, 1.55-1.73 in the next, same binary; the
# parent read 1.44-1.56 and 2.52-2.72 in the same pairings), so the bar
# was not tightened to 1.5 (EXPERIMENTS.md "Round once everywhere").
FAST_OVER_CSR=$(sed -n 's/.*"fast_over_csr":\([0-9.]*\).*/\1/p' BENCH_spmm.json)
if ! awk -v r="${FAST_OVER_CSR:-99}" 'BEGIN { exit !(r <= 3.0) }'; then
  echo "ci: fast path is ${FAST_OVER_CSR}x the CSR baseline's wall-clock (budget 3x)" >&2
  exit 1
fi
echo "ci: fast path at ${FAST_OVER_CSR}x the CSR baseline's wall-clock"

echo "== tracing overhead gate"
# The zero-cost claim, measured: a disarmed span site is one relaxed
# atomic load and must stay in the low tens of nanoseconds per call.
# (The armed/disarmed fast-path ratio is recorded in the JSON for the
# report; the wall-clock gate is the deterministic per-site bound.)
./target/release/spmm_cli --trace-ab-json BENCH_trace.json
SITE_NS=$(sed -n 's/.*"site_disarmed_ns":\([0-9.]*\).*/\1/p' BENCH_trace.json)
if ! awk -v n="$SITE_NS" 'BEGIN { exit !(n <= 100.0) }'; then
  echo "ci: disarmed span site costs ${SITE_NS} ns/call (budget 100)" >&2
  exit 1
fi
echo "ci: disarmed span site ${SITE_NS} ns/call"

echo "== cold-path gate"
# What a never-seen matrix costs its first caller, in units of a warm
# request on the same (pipelined, default) engine: median first request
# over median cache-hit request across 25 distinct matrices, measured
# in-process at the serving layer. Ten runs on the change read 3.7-5.5
# (the parent, whose background tuner cost 12 ms per new matrix, read
# 7.9-10.6 with the same binary), so 7 leaves 25% headroom and still
# fails if tuning or translation creeps back onto — or beside — the miss
# path at anything like its old cost.
./target/release/pipeline_bench --out BENCH_pipeline.json
COLD_OVER_WARM=$(sed -n 's/.*"cold_over_warm_p50":\([0-9.]*\).*/\1/p' BENCH_pipeline.json)
if ! awk -v r="${COLD_OVER_WARM:-99}" 'BEGIN { exit !(r <= 7.0) }'; then
  echo "ci: a cold first request costs ${COLD_OVER_WARM}x a warm one (budget 7x)" >&2
  exit 1
fi
echo "ci: a cold first request costs ${COLD_OVER_WARM}x a warm one"

echo "== serving smoke test (tracing armed)"
# Start fs-serve on a loopback port with tracing armed, fire a short
# loadgen burst, and require zero errors plus a clean acknowledged
# shutdown. The loadgen fetches the server's trace exports: the
# Prometheus text must carry a full quantile summary for every
# serve-stage span site, and the chrome timeline must be non-empty.
SERVE_PORT="${SERVE_PORT:-7949}"
# Fail fast if a stray server (e.g. a leaked fs-serve from an aborted
# run) is already bound to any port this script is about to use —
# otherwise the smoke tests would talk to the wrong process and fail
# with baffling errors, or worse, pass against stale code.
for OFFSET in $(seq 0 10); do
  PORT=$((SERVE_PORT + OFFSET))
  if (exec 3<>"/dev/tcp/127.0.0.1/${PORT}") 2>/dev/null; then
    echo "ci: port ${PORT} is already in use (stray fs-serve from a previous run?);" \
         "kill it or set SERVE_PORT to a free range" >&2
    exit 1
  fi
done
SMOKE_LOG=$(mktemp)
./target/release/fs-serve --addr "127.0.0.1:${SERVE_PORT}" --workers 2 --trace &
SERVE_PID=$!
SMOKE_OK=0
if ./target/release/loadgen \
    --addr "127.0.0.1:${SERVE_PORT}" \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 40 --concurrency 2 \
    --wait-ready-ms 10000 --shutdown --expect-zero-errors \
    --trace --trace-out TRACE_serve.json | tee "$SMOKE_LOG"; then
  SMOKE_OK=1
fi
if ! wait "$SERVE_PID"; then
  echo "ci: fs-serve exited uncleanly" >&2
  exit 1
fi
if [ "$SMOKE_OK" != 1 ]; then
  echo "ci: serving smoke test failed" >&2
  exit 1
fi
for STAGE in serve.decode serve.queue serve.batch serve.execute serve.encode; do
  for Q in 0.5 0.95 0.99; do
    if ! grep -q "fs_span_seconds{site=\"${STAGE}\",quantile=\"${Q}\"}" "$SMOKE_LOG"; then
      echo "ci: trace export missing ${STAGE} quantile ${Q}" >&2
      exit 1
    fi
  done
  STAGE_COUNT=$(sed -n "s/^fs_span_seconds_count{site=\"${STAGE}\"} //p" "$SMOKE_LOG")
  if ! awk -v c="${STAGE_COUNT:-0}" 'BEGIN { exit !(c > 0) }'; then
    echo "ci: trace export recorded no ${STAGE} spans" >&2
    exit 1
  fi
done
if ! grep -q '"traceEvents":\[{' TRACE_serve.json; then
  echo "ci: chrome trace timeline is empty" >&2
  exit 1
fi
rm -f "$SMOKE_LOG"
echo "ci: armed serving smoke exported all serve-stage spans"

echo "== chaos soak smoke test"
# Same stack under a seeded fault plan: worker kills, frame corruption,
# and fragment bit flips all active. The loadgen --chaos contract exits
# nonzero if any completed response was silently wrong (errors are fine),
# and the server must still drain and exit cleanly afterwards.
CHAOS_PORT=$((SERVE_PORT + 1))
./target/release/fs-serve --addr "127.0.0.1:${CHAOS_PORT}" --workers 2 \
    --chaos "seed=7;frag-bit=0.001;worker-kill=0.02;frame-corrupt=0.02" &
CHAOS_PID=$!
CHAOS_OK=0
if ./target/release/loadgen \
    --addr "127.0.0.1:${CHAOS_PORT}" \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 200 --concurrency 2 \
    --wait-ready-ms 10000 --shutdown --chaos; then
  CHAOS_OK=1
fi
if ! wait "$CHAOS_PID"; then
  echo "ci: fs-serve exited uncleanly under chaos" >&2
  exit 1
fi
if [ "$CHAOS_OK" != 1 ]; then
  echo "ci: chaos soak smoke test failed" >&2
  exit 1
fi

echo "== gnn serving gate (REQ_GNN_INFER, tracing armed)"
# End-to-end GNN inference: loadgen trains a GCN client-side, registers
# the normalized adjacency and the trained weights over the wire, then
# soaks REQ_GNN_INFER with cycling feature variants. Every served logit
# vector is bit-compared against the offline fs-gnn forward pass —
# --expect-zero-errors exits nonzero on wrong > 0 — and the armed trace
# export must carry quantile summaries for both GNN span sites plus
# nonzero embedding-cache traffic.
GNN_PORT=$((SERVE_PORT + 10))
GNN_LOG=$(mktemp)
./target/release/fs-serve --addr "127.0.0.1:${GNN_PORT}" --workers 2 --trace &
GNN_PID=$!
GNN_OK=0
if ./target/release/loadgen \
    --addr "127.0.0.1:${GNN_PORT}" \
    --gnn --gnn-precision 2 --gnn-nodes 128 --gnn-train-epochs 10 --gnn-variants 2 \
    --requests 40 --concurrency 2 \
    --wait-ready-ms 10000 --shutdown --expect-zero-errors --trace | tee "$GNN_LOG"; then
  GNN_OK=1
fi
if ! wait "$GNN_PID"; then
  echo "ci: fs-serve exited uncleanly under the gnn gate" >&2
  exit 1
fi
if [ "$GNN_OK" != 1 ]; then
  echo "ci: gnn serving gate failed" >&2
  exit 1
fi
if ! grep -q '"mode":"gnn"' "$GNN_LOG"; then
  echo "ci: gnn gate did not produce a gnn-mode report" >&2
  exit 1
fi
if ! grep -q '"gnn_layer_p95_us":\[' "$GNN_LOG"; then
  echo "ci: gnn gate report carries no per-layer latencies" >&2
  exit 1
fi
for STAGE in serve.gnn_layer serve.gnn_cache; do
  for Q in 0.5 0.95 0.99; do
    if ! grep -q "fs_span_seconds{site=\"${STAGE}\",quantile=\"${Q}\"}" "$GNN_LOG"; then
      echo "ci: trace export missing ${STAGE} quantile ${Q}" >&2
      exit 1
    fi
  done
done
GNN_HITS=$(sed -n 's/^fs_trace_counter{name="gnn_cache_hits"} //p' "$GNN_LOG")
GNN_MISSES=$(sed -n 's/^fs_trace_counter{name="gnn_cache_misses"} //p' "$GNN_LOG")
if ! awk -v h="${GNN_HITS:-0}" -v m="${GNN_MISSES:-0}" 'BEGIN { exit !(h > 0 && m > 0) }'; then
  echo "ci: gnn soak exercised no embedding-cache traffic (hits=${GNN_HITS:-0}" \
       "misses=${GNN_MISSES:-0})" >&2
  exit 1
fi
rm -f "$GNN_LOG"
echo "ci: gnn gate served bit-exact scores (cache hits=${GNN_HITS} misses=${GNN_MISSES})"

echo "== cluster smoke test"
# Three plain fs-serve shards behind an fs-cluster router carrying a
# seeded shard-kill plan. loadgen --cluster --chaos verifies every
# completed response row-by-row against its local reference (present
# rows within tolerance, lost rows exactly zero) and exits nonzero on
# any silently wrong row; the seeded kills must surface as degraded
# responses in the report. The slab-exact bitmap assertions live in
# crates/cluster/tests/cluster_e2e.rs.
SHARD1_PORT=$((SERVE_PORT + 2))
SHARD2_PORT=$((SERVE_PORT + 3))
SHARD3_PORT=$((SERVE_PORT + 4))
ROUTER_PORT=$((SERVE_PORT + 5))
CLUSTER_LOG=$(mktemp)
./target/release/fs-serve --addr "127.0.0.1:${SHARD1_PORT}" --workers 1 &
SHARD1_PID=$!
./target/release/fs-serve --addr "127.0.0.1:${SHARD2_PORT}" --workers 1 &
SHARD2_PID=$!
./target/release/fs-serve --addr "127.0.0.1:${SHARD3_PORT}" --workers 1 &
SHARD3_PID=$!
./target/release/fs-cluster --addr "127.0.0.1:${ROUTER_PORT}" \
    --shards "127.0.0.1:${SHARD1_PORT},127.0.0.1:${SHARD2_PORT},127.0.0.1:${SHARD3_PORT}" \
    --connect-timeout-ms 10000 \
    --chaos "seed=11;shard-kill=0.05;shard-stall=0.05;stall-ms=1" &
ROUTER_PID=$!
CLUSTER_OK=0
if ./target/release/loadgen \
    --addr "127.0.0.1:${ROUTER_PORT}" --cluster \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 120 --concurrency 2 \
    --wait-ready-ms 15000 --shutdown --chaos | tee "$CLUSTER_LOG"; then
  CLUSTER_OK=1
fi
if ! wait "$ROUTER_PID"; then
  echo "ci: fs-cluster exited uncleanly" >&2
  exit 1
fi
for PID in "$SHARD1_PID" "$SHARD2_PID" "$SHARD3_PID"; do
  if ! wait "$PID"; then
    echo "ci: a cluster shard exited uncleanly" >&2
    exit 1
  fi
done
if [ "$CLUSTER_OK" != 1 ]; then
  echo "ci: cluster smoke test failed" >&2
  exit 1
fi
DEGRADED=$(sed -n 's/.*"degraded":\([0-9]*\).*/\1/p' "$CLUSTER_LOG")
if ! awk -v d="${DEGRADED:-0}" 'BEGIN { exit !(d > 0) }'; then
  echo "ci: seeded shard kills produced no degraded responses" >&2
  exit 1
fi
rm -f "$CLUSTER_LOG"
echo "ci: cluster smoke survived ${DEGRADED} degraded responses with zero wrong rows"

echo "== heal gate (kill -> degrade -> repair -> router restart)"
# The fs-heal acceptance story end-to-end: a replicated 3-shard cluster
# under a seeded kill plan (rate 1.0 — every primary attempt is
# injected-killed, so every slab serves from its replica and a real
# shard death is observable as degradation the moment it happens).
# Phase 1 must be clean, phase 2 (one shard really dead) must degrade,
# phase 3 (after the heal loop re-replicates onto the survivors) must
# be clean again with repairs on the books, and phase 4 (a fresh router
# recovering the manifest from the journal, never re-sent a Load) must
# serve the same matrix with zero wrong rows. Every loadgen run is
# --chaos: exit is nonzero on any silently wrong row.
HEAL1_PORT=$((SERVE_PORT + 6))
HEAL2_PORT=$((SERVE_PORT + 7))
HEAL3_PORT=$((SERVE_PORT + 8))
HEAL_ROUTER_PORT=$((SERVE_PORT + 9))
HEAL_JOURNAL=$(mktemp)
HEAL_LOG=$(mktemp)
HEAL_ROUTER_LOG=$(mktemp)
./target/release/fs-serve --addr "127.0.0.1:${HEAL1_PORT}" --workers 1 &
HEAL1_PID=$!
./target/release/fs-serve --addr "127.0.0.1:${HEAL2_PORT}" --workers 1 &
HEAL2_PID=$!
./target/release/fs-serve --addr "127.0.0.1:${HEAL3_PORT}" --workers 1 &
HEAL3_PID=$!
./target/release/fs-cluster --addr "127.0.0.1:${HEAL_ROUTER_PORT}" \
    --shards "127.0.0.1:${HEAL1_PORT},127.0.0.1:${HEAL2_PORT},127.0.0.1:${HEAL3_PORT}" \
    --replicate --connect-timeout-ms 10000 \
    --probe-interval-ms 200 --suspect-after 1 --down-after 2 \
    --journal "$HEAL_JOURNAL" --keep-shards \
    --chaos "seed=13;shard-kill=1.0" &
HEAL_ROUTER_PID=$!

# Phase 1: all shards up — the replicas absorb every injected kill.
./target/release/loadgen \
    --addr "127.0.0.1:${HEAL_ROUTER_PORT}" --cluster \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 40 --concurrency 2 \
    --wait-ready-ms 15000 --chaos | tee "$HEAL_LOG"
DEGRADED=$(sed -n 's/.*"degraded":\([0-9]*\).*/\1/p' "$HEAL_LOG")
if [ "${DEGRADED:-1}" != 0 ]; then
  echo "ci: heal gate degraded before any real kill (${DEGRADED})" >&2
  exit 1
fi

# Kill one shard for real (clean drain, so its exit status stays checkable).
./target/release/loadgen --addr "127.0.0.1:${HEAL3_PORT}" \
    --matrix uniform:64x64x512 --n 4 --requests 1 --concurrency 1 \
    --wait-ready-ms 10000 --shutdown > /dev/null
if ! wait "$HEAL3_PID"; then
  echo "ci: killed shard exited uncleanly" >&2
  exit 1
fi

# Phase 2: the dead shard backed a replica; with primaries
# injected-killed that slab has no copies — degradation must appear.
./target/release/loadgen \
    --addr "127.0.0.1:${HEAL_ROUTER_PORT}" --cluster \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 40 --concurrency 2 \
    --wait-ready-ms 15000 --chaos | tee "$HEAL_LOG"
DEGRADED=$(sed -n 's/.*"degraded":\([0-9]*\).*/\1/p' "$HEAL_LOG")
if ! awk -v d="${DEGRADED:-0}" 'BEGIN { exit !(d > 0) }'; then
  echo "ci: real shard kill produced no degraded responses" >&2
  exit 1
fi
if ! grep -q '"degraded_timeline":\[' "$HEAL_LOG"; then
  echo "ci: loadgen report carries no degraded_timeline" >&2
  exit 1
fi

# Phase 3: give the heal loop a beat (probe 200ms, Down after 2 misses,
# repair on the Down tick) — responses must be clean again and the
# echoed heal section must show the repair and the Down shard.
sleep 2
./target/release/loadgen \
    --addr "127.0.0.1:${HEAL_ROUTER_PORT}" --cluster \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 40 --concurrency 2 \
    --wait-ready-ms 15000 --chaos --shutdown | tee "$HEAL_LOG"
DEGRADED=$(sed -n 's/.*"degraded":\([0-9]*\).*/\1/p' "$HEAL_LOG")
if [ "${DEGRADED:-1}" != 0 ]; then
  echo "ci: responses still degraded after repair (${DEGRADED})" >&2
  exit 1
fi
REPAIRS=$(sed -n 's/.*"heal_repairs_completed":\([0-9]*\).*/\1/p' "$HEAL_LOG")
if ! awk -v r="${REPAIRS:-0}" 'BEGIN { exit !(r > 0) }'; then
  echo "ci: router reported no completed repairs" >&2
  exit 1
fi
if ! grep -q '"heal_shard_states":\[.*"down"' "$HEAL_LOG"; then
  echo "ci: heal echo does not show the dead shard as down" >&2
  exit 1
fi
if ! wait "$HEAL_ROUTER_PID"; then
  echo "ci: fs-cluster (heal, first router) exited uncleanly" >&2
  exit 1
fi

# Phase 4: a fresh router on the same journal — the manifest must come
# back from the journal's valid prefix (the survivors are the only
# static shards; the dead one is re-joined from the journal and stays
# Down). The loadgen re-sends its registration, which must resolve
# idempotently; rows are verified against the reference as always.
./target/release/fs-cluster --addr "127.0.0.1:${HEAL_ROUTER_PORT}" \
    --shards "127.0.0.1:${HEAL1_PORT},127.0.0.1:${HEAL2_PORT}" \
    --replicate --connect-timeout-ms 10000 \
    --probe-interval-ms 200 --suspect-after 1 --down-after 2 \
    --journal "$HEAL_JOURNAL" \
    --chaos "seed=13;shard-kill=1.0" > "$HEAL_ROUTER_LOG" &
HEAL_ROUTER_PID=$!
./target/release/loadgen \
    --addr "127.0.0.1:${HEAL_ROUTER_PORT}" --cluster \
    --matrix uniform:256x256x4096 --n 16 \
    --requests 40 --concurrency 2 \
    --wait-ready-ms 15000 --chaos --shutdown | tee "$HEAL_LOG"
DEGRADED=$(sed -n 's/.*"degraded":\([0-9]*\).*/\1/p' "$HEAL_LOG")
if [ "${DEGRADED:-1}" != 0 ]; then
  echo "ci: restarted router served degraded responses (${DEGRADED})" >&2
  exit 1
fi
if ! wait "$HEAL_ROUTER_PID"; then
  echo "ci: fs-cluster (heal, restarted router) exited uncleanly" >&2
  exit 1
fi
if ! grep -q "1 matrix(es) recovered" "$HEAL_ROUTER_LOG"; then
  echo "ci: restarted router did not recover the manifest from the journal" >&2
  cat "$HEAL_ROUTER_LOG" >&2
  exit 1
fi
for PID in "$HEAL1_PID" "$HEAL2_PID"; do
  if ! wait "$PID"; then
    echo "ci: a heal-gate shard exited uncleanly" >&2
    exit 1
  fi
done
rm -f "$HEAL_LOG" "$HEAL_ROUTER_LOG" "$HEAL_JOURNAL"
echo "ci: heal gate passed (degrade -> repair -> journal-recovered restart, zero wrong rows)"

echo "ci: all gates passed"
