#!/usr/bin/env bash
# The one command: build the benchmark package (release, offline, its own
# workspace and lock file) and hand every argument to it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--trace] [--quick] [--seed N] [--reps R] [--out FILE]
#   benchmark/run.sh compare <a.json> <b.json>
#
# Run from the repository root. CARGO_TARGET_DIR is honoured (a relative
# one is relative to the root); without it the build goes to
# benchmark/target. Cargo's output goes to stderr so that the last line
# of stdout is always the run's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
