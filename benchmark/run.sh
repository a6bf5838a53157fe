#!/usr/bin/env bash
# The single entry point of the repo benchmark: build the benchmark
# package in release mode (offline, its own workspace), then hand every
# argument to it. Run from anywhere; paths resolve against this script.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                   one measurement; the last line of
#                                   stdout is the result (BENCHMARK.json)
#   benchmark/run.sh [--seed S] [--reps N] [--workload W] [--trace [0|1]]
#                                   full run -> benchmark/out/latest.json
#   benchmark/run.sh --quick        self-test at tiny sizes
#   benchmark/run.sh compare <a.json> <b.json>
#
# See benchmark/README.md.
set -euo pipefail

bench_dir="$(dirname "${BASH_SOURCE[0]}")"

# A relative CARGO_TARGET_DIR is relative to the directory cargo runs
# in, and cargo runs here in the caller's directory.
target_dir="${CARGO_TARGET_DIR:-$bench_dir/target}"

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target_dir" cargo build --release --offline --quiet \
    --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target_dir/release/salamander-benchmark" --bench-dir "$bench_dir" "$@"
