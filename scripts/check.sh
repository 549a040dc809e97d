#!/usr/bin/env bash
# Pre-PR gate: run everything a reviewer would. Each step must pass.
#
# Always:
#   fmt, clippy -D warnings (panic-freedom lints are warn-by-default in the
#   serving-path modules, so -D warnings makes them errors there), the
#   workspace invariant analyzer (DESIGN.md §9), the tier-1 suite, and the
#   perf ledger's own tests (`ledger/` is a workspace of its own, so
#   `--workspace` never compiles it; this step catches an API break in
#   core/server before the benchmark meets it).
#
# Opt in:
#   --gates        the two count/identity gates, which bite on any box:
#                  alloc_census --smoke (allocations per command on the K=1
#                  GET/SET path and per restored key of a 16-chunk restore,
#                  under pinned budgets; rows land in BENCH_alloc.json) and
#                  restore_mttr --smoke (sequential and partitioned restore
#                  dump to identical bytes, neither over 2x the other; rows
#                  land in BENCH_restore_mttr.json).
#   --ledger       the perf ledger (BENCHMARK.json, ~2 min): one seed of
#                  each workload (one process each, as BENCHMARK.json's
#                  driver runs them), compared against the committed record
#                  results/ledger_record.jsonl under BENCHMARK.json's bounds;
#                  fails on any `worse` metric or any failed request.
#   --concurrency  re-runs the analyzer writing the lock-order graph
#                  (results/lockgraph.{dot,toml}), runs the interleaving
#                  model tests, then probes for miri / ThreadSanitizer and
#                  says so when the offline toolchain has neither.
#
# Usage: scripts/check.sh [--gates] [--ledger] [--concurrency] [cargo flags]
# Anything else (e.g. --offline --config <file> in the hermetic container)
# is passed through to every cargo invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

GATES=0
LEDGER=0
CONCURRENCY=0
CARGO_FLAGS=()
for arg in "$@"; do
  case "$arg" in
    --gates) GATES=1 ;;
    --ledger) LEDGER=1 ;;
    --concurrency) CONCURRENCY=1 ;;
    *) CARGO_FLAGS+=("$arg") ;;
  esac
done

run() {
  echo "==> $*"
  "$@"
}

# Like run, but reports the wall-clock time of the step.
timed() {
  local label="$1"
  shift
  echo "==> [$label] $*"
  local t0 t1
  t0=$(date +%s)
  "$@"
  t1=$(date +%s)
  echo "==> [$label] done in $((t1 - t0))s"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings
run cargo run -q -p memorydb-analysis "${CARGO_FLAGS[@]}"
run cargo test -q --workspace "${CARGO_FLAGS[@]}"
run cargo test -q --manifest-path ledger/Cargo.toml "${CARGO_FLAGS[@]}"
if [[ "$GATES" == "1" ]]; then
  run cargo run -q --release -p memorydb-bench "${CARGO_FLAGS[@]}" --bin alloc_census -- \
    --smoke --json BENCH_alloc.json
  run cargo run -q --release -p memorydb-bench "${CARGO_FLAGS[@]}" --bin restore_mttr -- --smoke
fi
if [[ "$LEDGER" == "1" ]]; then
  ledger_out="$(mktemp)"
  trap 'rm -f "$ledger_out"' EXIT
  # One process per workload: peak_rss_mb is the process's high-water mark.
  for w in read write mixed; do
    timed "ledger $w" bash ledger/run.sh --workload "$w" --seed 1 --out "$ledger_out"
  done
  run bash ledger/run.sh --compare results/ledger_record.jsonl "$ledger_out"
fi
if [[ "$CONCURRENCY" == "1" ]]; then
  mkdir -p results
  timed lockgraph cargo run -q -p memorydb-analysis "${CARGO_FLAGS[@]}" -- \
    --lockgraph-dot results/lockgraph.dot --lockgraph-toml results/lockgraph.toml
  echo "==> lock-order artifacts: results/lockgraph.dot results/lockgraph.toml"
  timed model-tests cargo test -q -p memorydb-sim "${CARGO_FLAGS[@]}" --test interleave_models
  # Best-effort dynamic checkers. Neither toolchain component ships in the
  # hermetic container, so probe first and skip explicitly instead of
  # failing: a skip line in the log is a fact, a missing line is a mystery.
  if cargo miri --version >/dev/null 2>&1; then
    timed miri cargo miri test -p memorydb-sim --test interleave_models
  else
    echo "==> [miri] SKIPPED: \`cargo miri\` unavailable (offline box, component not installed)"
  fi
  # TSan needs a sanitized std (-Zbuild-std), which needs the nightly
  # rust-src component — probe for it, not just for a nightly rustc.
  if [[ "$(uname -m)" == "x86_64" ]] \
    && rustup +nightly component list --installed 2>/dev/null | grep -q '^rust-src'; then
    timed tsan env RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -p memorydb-sim "${CARGO_FLAGS[@]}" --test interleave_models \
      -Zbuild-std --target x86_64-unknown-linux-gnu
  else
    echo "==> [tsan] SKIPPED: nightly rust-src for -Zsanitizer=thread unavailable (offline box)"
  fi
fi

echo "==> all checks passed"
