#!/usr/bin/env bash
# Pre-PR gate: run everything a reviewer would. Each step must pass.
#
#   fmt     — no unformatted code
#   clippy  — no warnings anywhere in the workspace (panic-freedom lints
#             are warn-by-default in the serving-path modules, so -D
#             warnings turns them into errors there)
#   analyze — the workspace invariant analyzer (DESIGN.md §9): green
#             baseline, no stale entries
#   test    — the full tier-1 suite (includes tests/analysis.rs, which
#             re-runs the analyzer, and the chaos smoke schedules)
#   ledger  — the perf ledger's own tests. `ledger/` is a workspace of its
#             own, so `--workspace` never compiles it; this step is what
#             catches an API break in core/server that the benchmark
#             would otherwise meet first.
#   metrics — tcp_throughput --smoke (§10 observability + §12 striping):
#             per-stage latency attribution must sample every declared
#             stage, the stage sums must be consistent with the e2e span,
#             the commit pipeline must show cross-connection coalescing at
#             K>=8 (append calls < dispatched batches), and at K>=8 the
#             16-stripe engine must beat the 1-stripe baseline by >=1.5x
#             ops/s (skipped on hosts with <4 cores, where stripes only
#             time-share one CPU); the binary exits nonzero otherwise.
#             Opt in with --metrics-smoke (it costs a few seconds of
#             closed-loop TCP load). Also runs log_latency --smoke (§13
#             group commit): at K=1 every command must append exactly
#             once; the smoke rows land in BENCH_log_latency.json. Also
#             runs restore_mttr --smoke
#             (§4.2 + DESIGN.md §14 incremental snapshots / partitioned
#             restore): every row must restore a complete image at both
#             worker counts, the sequential and the parallel restore must
#             dump to identical bytes, and neither may take more than 2x
#             as long as the other (no core-count skip); the smoke rows
#             land in BENCH_restore_mttr.json.
#
#   alloc-census — the §15 zero-copy allocation gate, opt in with
#             --alloc-census (also folded into --metrics-smoke):
#             alloc_census --smoke counts allocations-per-command on the
#             K=1 multiplexed GET/SET path, and allocations per restored
#             key of a sequential 16-chunk restore (restore_16chunk), with
#             a counting global allocator. Every workload must stay under
#             its pinned absolute budget AND >=50% below the committed
#             pre-PR baseline. This gate has NO core-count skip-guard — it runs
#             (and is meaningful) on a 1-core box. Rows land in
#             BENCH_alloc.json.
#
#   concurrency — the §9 concurrency-correctness pass, opt in with
#             --concurrency: re-runs the analyzer with the lock-order
#             graph artifacts enabled (results/lockgraph.dot +
#             results/lockgraph.toml, the sanctioned acquisition order as
#             reviewable files), which also prints the total Relaxed
#             atomics census, then runs the interleaving model tests
#             (crates/sim/tests/interleave_models.rs) that exhaustively
#             schedule the commit-pipeline handoffs. Each sub-step is
#             timed. Finishes with a best-effort `cargo miri` /
#             ThreadSanitizer probe that self-skips — loudly — when the
#             toolchain component is not installed on this (offline) box.
#
# Usage: scripts/check.sh [--metrics-smoke] [--alloc-census] [--concurrency] [--offline]
# Extra cargo flags (e.g. --offline in the hermetic container) are passed
# through to every cargo invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

METRICS_SMOKE=0
ALLOC_CENSUS=0
CONCURRENCY=0
CARGO_FLAGS=()
for arg in "$@"; do
  case "$arg" in
    --metrics-smoke) METRICS_SMOKE=1 ;;
    --alloc-census) ALLOC_CENSUS=1 ;;
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
if [[ "$METRICS_SMOKE" == "1" ]]; then
  run cargo run -q --release -p memorydb-bench "${CARGO_FLAGS[@]}" --bin tcp_throughput -- --smoke
  run cargo run -q --release -p memorydb-bench "${CARGO_FLAGS[@]}" --bin log_latency -- --smoke
  run cargo run -q --release -p memorydb-bench "${CARGO_FLAGS[@]}" --bin restore_mttr -- --smoke
fi
if [[ "$METRICS_SMOKE" == "1" || "$ALLOC_CENSUS" == "1" ]]; then
  run cargo run -q --release -p memorydb-bench "${CARGO_FLAGS[@]}" --bin alloc_census -- \
    --smoke --json BENCH_alloc.json
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
