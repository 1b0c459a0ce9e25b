#!/usr/bin/env bash
# The benchmark's one command: build, then run.  Arguments go to the program:
#
#   run.sh --workload W --seed N --seconds T --trace 0|1   one workload; the last line of
#                                                           standard output is one JSON object
#   run.sh [--seed N] [--rounds R]    all seven workloads -> out/results.json, out/trace_*.json
#   run.sh --aa                       all seven twice on one build, side by side
#   run.sh --compare A.json B.json    two results files side by side
#
# Run it from anywhere.  The build is offline and needs nothing outside the repository:
# the package depends on the five product crates by path, so in a directory that holds
# the benchmark alone the build fails and this script exits with cargo's code.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means relative to where the command was typed.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# cargo's progress goes to standard error; standard output is the program's alone.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

BENCH_RUSTC="$(rustc -V)"
BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT
exec "$target/release/chaos-benchmark" "$@"
