#!/usr/bin/env bash
# The two-clock benchmark, one command:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace] [--selfcheck]
#       the whole suite, each workload in a process of its own
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the JSON result
#
# Builds the harness (its own workspace, offline, locked) and runs it with
# the worker pool pinned to two lanes. Everything it writes stays under
# benchmark/ (or under $CARGO_TARGET_DIR when the caller sets one).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build chatter goes to stderr: standard output is the report.
cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# Two lanes: this box's nproc and the library's default here, stated so a
# run on a wider machine measures the same configuration.
export SWDNN_THREADS="${SWDNN_THREADS:-2}"
export SWDNN_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo 'rustc unknown')"
export SWDNN_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$target/release/swdnn-benchmark" --out-dir "$here/out" "$@"
