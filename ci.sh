#!/usr/bin/env bash
# Offline-safe CI for the Loom reproduction workspace.
#
# Every dependency is an in-workspace path crate (see shims/), so no
# step below ever touches a registry; --offline just makes that
# explicit and turns any accidental network dependency into an error.
#
# Usage: ci.sh [--quick|--full]
#
#   --full  (default) everything: lints, bench compile, the 1M-edge
#           bounded-memory smoke, and the perf/quality regression gate
#           against the committed BENCH_results.json.
#   --quick the fast pre-commit loop: build, tests, fmt, the micro
#           bench suites and a 200k-edge smoke; skips clippy, the full
#           bench compile and the perf gate.
#
# The run is split into named stages; a failure reports the stage by
# name, and a per-stage timing table prints on every exit.
set -euo pipefail
cd "$(dirname "$0")"

MODE=full
case "${1:---full}" in
  --quick) MODE=quick ;;
  --full) MODE=full ;;
  *) echo "usage: ci.sh [--quick|--full]" >&2; exit 2 ;;
esac

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_START=0
FAILED_STAGE=""

finish_stage() {
  if [ -n "$CURRENT_STAGE" ]; then
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECS+=($((SECONDS - STAGE_START)))
    CURRENT_STAGE=""
  fi
}

stage() {
  finish_stage
  CURRENT_STAGE="$1"
  STAGE_START=$SECONDS
  echo
  echo "== $1 =="
}

report() {
  local status=$?
  if [ $status -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
    FAILED_STAGE="$CURRENT_STAGE"
  fi
  finish_stage
  echo
  echo "-- ci stage timings ($MODE mode) --"
  local i total=0
  for i in "${!STAGE_NAMES[@]}"; do
    printf '   %-32s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
  done
  printf '   %-32s %4ds\n' total "$total"
  if [ $status -ne 0 ]; then
    echo "ci: FAILED in stage '${FAILED_STAGE:-unknown}' (exit $status)" >&2
  else
    echo "ci: all green ($MODE mode)"
  fi
}
trap report EXIT

stage "tier-1: build"
cargo build --release --offline

stage "tier-1: test"
cargo test -q --offline

stage "benchmark builds + unit tests"
# The benchmark (loombench/, its own workspace) builds against the
# crates by path and implements their public traits; building and
# testing it here makes any break of that surface fail pre-commit.
cargo test --offline -q --manifest-path loombench/Cargo.toml

stage "batch-equivalence suite"
# The batched-ingest contract, by name: batch mode must be
# bit-identical to edge-at-a-time for every batch size (assignments,
# stats, snapshots, arena/adjacency occupancy). Already part of the
# tier-1 run above; re-running the one suite is cheap and makes a
# violation name itself in the stage table.
cargo test -q --offline -p loom-core --test batch_equivalence

stage "recovery suite (kill/resume matrix)"
# The crash-recovery contract, by name: a run killed at any point —
# mid-batch, exactly at a checkpoint, one past it — and resumed from
# its WAL must be bit-identical to one uninterrupted run, across
# batch sizes; torn journal tails and corrupt or
# missing checkpoints must recover from the checksummed prefix or
# fail loudly naming the record (DESIGN.md §15). Both suites are also
# in tier-1 above; the second drives the real binary end to end
# (--stop-after / --resume).
cargo test -q --offline -p loom-core --test recovery_equivalence
cargo test -q --offline -p loom-cli --test stop_after

stage "format"
cargo fmt --check

if [ "$MODE" = full ]; then
  stage "lints (clippy -D warnings)"
  cargo clippy --offline --workspace --all-targets -- -D warnings

  stage "benches compile"
  cargo bench --offline --no-run -q
fi

stage "matcher micro-suite (1 sample)"
# Keeps the hub-scaling / match-dense / bypass-heavy benches from
# rotting: they must build AND run end to end on every CI pass.
LOOM_BENCH_SAMPLES=1 cargo bench --offline -q --bench matcher_micro

stage "partition micro-suite (1 sample)"
# Same contract for the scoring/assignment hot paths: hub-fallback,
# assignment-burst, restream, and the mixed Loom edge loop.
LOOM_BENCH_SAMPLES=1 cargo bench --offline -q --bench partition_micro

stage "adjacency micro-suite (1 sample)"
# And for the bounded neighbourhood store: unbounded baseline vs
# bounded churn (expiry + generational compaction) vs full counter
# maintenance under eviction.
LOOM_BENCH_SAMPLES=1 cargo bench --offline -q --bench adjacency_churn

stage "stream smoke (stdin ingest, online engine)"
# A small-scale generate emits ~15k edges; stream must ingest them from
# stdin (never materialised) and print >= 2 mid-stream snapshots.
SNAPSHOTS=$(./target/release/loom generate --dataset dblp --scale small --seed 7 2>/dev/null \
  | ./target/release/loom stream --k 4 --system ldg --snapshot-every 5000 2>/dev/null \
  | { grep -c '^snapshot ' || true; })
if [ "$SNAPSHOTS" -lt 3 ]; then
  echo "stream smoke failed: expected >= 3 snapshot lines, got $SNAPSHOTS" >&2
  exit 1
fi
echo "stream smoke: $SNAPSHOTS snapshots"

stage "serve smoke (live readers over paced ingest)"
# The serving contract end to end (DESIGN.md §16): a `loom serve` run
# answering four concurrent `loom query` readers over a paced
# 200k-edge ingest must serve a nonzero number of queries, every
# reader must get OK replies, and the serve run's ingest stdout must
# be byte-identical to a `loom stream` twin once the serving-only
# "queries" snapshot segment is stripped — reads never perturb the
# partitioning stream. The linger flag is a cap: the server exits as
# soon as the last reader disconnects.
SERVE_ARGS=(--k 4 --system ldg --source synthetic --max-edges 200000
  --snapshot-every 20000 --seed 13 --labels 4)
./target/release/loom stream "${SERVE_ARGS[@]}" 2>/dev/null > target/ci-serve-twin.txt
rm -f target/ci-serve-err.txt
./target/release/loom serve "${SERVE_ARGS[@]}" --listen 127.0.0.1:0 \
  --pace-ms 5 --linger-ms 30000 \
  2> target/ci-serve-err.txt > target/ci-serve-out.txt &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 200); do
  SERVE_ADDR=$(sed -n 's/^serve: listening on //p' target/ci-serve-err.txt 2>/dev/null | head -1)
  [ -n "$SERVE_ADDR" ] && break
  sleep 0.05
done
if [ -z "$SERVE_ADDR" ]; then
  echo "serve smoke: server never printed its listen address" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
QUERY_PIDS=()
for i in 1 2 3 4; do
  ./target/release/loom query --connect "$SERVE_ADDR" \
    --request 'STATS;EPOCH;KHOP 3 2 2000;MATCH 0-1 500;PART 7' --count 25 \
    > "target/ci-serve-reader$i.txt" 2>/dev/null &
  QUERY_PIDS+=($!)
done
READERS_OK=0
for pid in "${QUERY_PIDS[@]}"; do
  if wait "$pid"; then READERS_OK=$((READERS_OK + 1)); fi
done
wait "$SERVE_PID"
if [ "$READERS_OK" -ne 4 ]; then
  echo "serve smoke: only $READERS_OK of 4 readers got any reply" >&2
  exit 1
fi
for i in 1 2 3 4; do
  if ! grep -q '^OK ' "target/ci-serve-reader$i.txt"; then
    echo "serve smoke: reader $i got no OK replies" >&2
    exit 1
  fi
done
SERVED=$(sed -n 's/^serve: \([0-9][0-9]*\) served.*/\1/p' target/ci-serve-err.txt | head -1)
if [ -z "$SERVED" ] || [ "$SERVED" -eq 0 ]; then
  echo "serve smoke: no queries served (stderr tail: $(tail -n 1 target/ci-serve-err.txt))" >&2
  exit 1
fi
sed 's/  queries .*$//' target/ci-serve-out.txt > target/ci-serve-stripped.txt
if ! diff -u target/ci-serve-twin.txt target/ci-serve-stripped.txt; then
  echo "serve smoke: serve ingest output diverged from the stream twin" >&2
  exit 1
fi
echo "serve smoke: $SERVED queries served across 4 live readers, outputs identical (queries segment aside)"

stage "long stream smoke (bounded-memory plateaus)"
# Synthetic edges through the full Loom partitioner with a bounded
# window: BOTH stream-length-proportional stores must plateau, not
# grow with edges seen —
#   arena <live>/<total> cells ... gen <g>   (match-arena reclamation)
#   adjacency <live>/<total> entries gen <g> (neighbourhood retention)
# For each we assert (a) at least one generational compaction ran
# (gen >= 1) and (b) the last snapshot's resident total is within 6x
# of the smallest mid-stream snapshot — a plateau, not a ramp. Full
# mode drives 1M edges under the default window-tied horizon (64
# windows); quick mode drives 200k.
#
# Full mode drives the ingest through the batched path (the engine
# default); quick mode forces the edge-at-a-time loop, so both CLI
# ingest paths see end-to-end coverage and the plateau assertions —
# which batch equivalence guarantees are mode-independent — hold
# identically for each.
if [ "$MODE" = full ]; then
  SMOKE_EDGES=1000000
  SMOKE_EVERY=100000
  SMOKE_BATCH=256
else
  SMOKE_EDGES=200000
  SMOKE_EVERY=20000
  SMOKE_BATCH=1
fi
WORKLOAD=target/ci-smoke-workload.wl
./target/release/loom workload --dataset dblp --out "$WORKLOAD" 2>/dev/null
SMOKE_T0=$SECONDS
./target/release/loom stream --k 4 --system loom --source synthetic \
    --max-edges "$SMOKE_EDGES" --window 1024 --snapshot-every "$SMOKE_EVERY" \
    --batch "$SMOKE_BATCH" \
    --workload "$WORKLOAD" --labels 4 2>/dev/null > target/ci-smoke.txt
SMOKE_SECS=$((SECONDS - SMOKE_T0))
awk '
    /^snapshot .* arena .* adjacency / {
      # First "gen" on the line belongs to the arena, second to the
      # adjacency (the printer emits "arena ... gen G  adjacency ...
      # gen G").
      ngen = 0
      for (i = 1; i <= NF; i++) {
        if ($i == "arena") split($(i+1), ac, "/")
        if ($i == "adjacency") split($(i+1), jc, "/")
        if ($i == "gen") gens[++ngen] = $(i+1)
      }
      n += 1
      if (n == 1 || ac[2] < min_arena) min_arena = ac[2]
      if (n == 1 || jc[2] < min_adj) min_adj = jc[2]
      last_arena = ac[2]; last_adj = jc[2]
      arena_gen = gens[1]; adj_gen = gens[2]
    }
    END {
      if (n < 5) { print "long smoke: only " n " parsable snapshots" > "/dev/stderr"; exit 1 }
      if (arena_gen + 0 < 1) { print "long smoke: arena never compacted (gen " arena_gen ")" > "/dev/stderr"; exit 1 }
      if (last_arena + 0 > 6 * min_arena) {
        print "long smoke: arena cells grew " min_arena " -> " last_arena " (no plateau)" > "/dev/stderr"; exit 1
      }
      if (adj_gen + 0 < 1) { print "long smoke: adjacency never compacted (gen " adj_gen ")" > "/dev/stderr"; exit 1 }
      if (last_adj + 0 > 6 * min_adj) {
        print "long smoke: adjacency entries grew " min_adj " -> " last_adj " (no plateau)" > "/dev/stderr"; exit 1
      }
      print "long smoke: arena plateau at " last_arena " cells (min " min_arena ", gen " arena_gen ")"
      print "long smoke: adjacency plateau at " last_adj " entries (min " min_adj ", gen " adj_gen ")"
    }' target/ci-smoke.txt

if [ "$MODE" = full ]; then
  stage "recovery smoke (1M edges with --wal)"
  # The 1M-edge smoke once more with a WAL attached: every digit of
  # the snapshot stream must match the WAL-off run once the wal
  # bookkeeping segment is stripped (the journal and checkpoints are
  # pure observation), and journaling + checkpointing may not cost
  # more than 30% wall time on top of the WAL-off run.
  WAL_DIR=target/ci-smoke-wal
  rm -rf "$WAL_DIR"
  WAL_T0=$SECONDS
  ./target/release/loom stream --k 4 --system loom --source synthetic \
      --max-edges "$SMOKE_EDGES" --window 1024 --snapshot-every "$SMOKE_EVERY" \
      --batch "$SMOKE_BATCH" \
      --workload "$WORKLOAD" --labels 4 \
      --wal "$WAL_DIR" --checkpoint-every 250000 2>/dev/null > target/ci-smoke-wal.txt
  WAL_SECS=$((SECONDS - WAL_T0))
  sed 's/  wal .*$//' target/ci-smoke-wal.txt > target/ci-smoke-wal-stripped.txt
  if ! diff -u target/ci-smoke.txt target/ci-smoke-wal-stripped.txt; then
    echo "recovery smoke: WAL-on output diverged from WAL-off" >&2
    exit 1
  fi
  echo "recovery smoke: WAL-on and WAL-off outputs identical (wal segment aside)"
  echo "recovery smoke timing: WAL-off ${SMOKE_SECS}s, WAL-on ${WAL_SECS}s, $(du -sh "$WAL_DIR" | cut -f1) on disk"
  if [ "$SMOKE_SECS" -ge 10 ]; then
    # <= 1.3x wall time (integer-second arithmetic: 10*wal <= 13*t1).
    if [ $((10 * WAL_SECS)) -gt $((13 * SMOKE_SECS)) ]; then
      echo "recovery smoke: WAL overhead over 30% (WAL-off ${SMOKE_SECS}s, WAL-on ${WAL_SECS}s)" >&2
      exit 1
    fi
    echo "recovery smoke: overhead gate passed"
  else
    echo "recovery smoke: overhead gate skipped (WAL-off run took only ${SMOKE_SECS}s)"
  fi
  rm -rf "$WAL_DIR"
fi
rm -f "$WORKLOAD"

if [ "$MODE" = full ]; then
  stage "perf gate (regenerate vs committed BENCH_results.json)"
  # Regenerates the bench summary (small scale, seed 42) and compares
  # it against the committed copy: weighted_ipt/imbalance must match
  # exactly, ms_per_10k_edges may not regress more than 30%. The
  # before/after table prints to stderr. repro's exit codes separate
  # the failure kinds — report each by name rather than a bare
  # non-zero, because the operator action differs:
  #   1 = a real regression (investigate the slowdown / quality drift)
  #   3 = the committed baseline is missing or corrupt (re-generate
  #       and commit BENCH_results.json; nothing regressed)
  # Each gate run also appends a one-line JSON summary (timestamp,
  # per-system ms/quality, pass/fail) to the git-ignored
  # BENCH_history.jsonl, so perf drift across local runs is greppable.
  GATE_STATUS=0
  ./target/release/repro --scale small --seed 42 \
    --bench-json target/ci-bench-fresh.json \
    --compare-bench BENCH_results.json \
    --history BENCH_history.jsonl > /dev/null || GATE_STATUS=$?
  case "$GATE_STATUS" in
    0) ;;
    3) echo "perf gate: committed BENCH_results.json unreadable — refresh the baseline (exit 3)" >&2
       exit 3 ;;
    *) echo "perf gate: regression against the committed baseline (exit $GATE_STATUS)" >&2
       exit "$GATE_STATUS" ;;
  esac
  # The gate run also drives the serve QPS drill (real TCP readers
  # against a built view) and records it in the history line; a
  # missing block means the drill silently stopped running.
  if ! tail -n 1 BENCH_history.jsonl | grep -q '"serve"'; then
    echo "perf gate: history record is missing the serve drill block" >&2
    exit 1
  fi
  echo "perf gate: serve drill recorded: $(tail -n 1 BENCH_history.jsonl | grep -o '"serve": {[^}]*}')"
fi
