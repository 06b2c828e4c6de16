#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The in-process daemon logs one line per request to stderr; that log goes
# to a scratch file and is shown (without the request lines) only when the
# run fails.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/nvp-perfbench"
mkdir -p .bench_work
log=".bench_work/stderr-$$.log"
status=0
"$bin" "$@" 2>"$log" || status=$?
if [ "$status" -ne 0 ]; then
    grep -v '^\[req-' "$log" >&2 || true
fi
rm -f "$log"
rmdir .bench_work 2>/dev/null || true
exit "$status"
