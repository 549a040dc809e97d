#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json:
#   bash ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds both binaries of this package offline (a no-op after the first
# run), then runs `ledger` for --trace 0 and `ledger-traced` (the same
# program with the counting allocator installed) for --trace 1. Any other
# arguments (--compare, --out, no --workload) go to `ledger` unchanged.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=ledger
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then bin=ledger-traced; fi
  prev="$arg"
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
