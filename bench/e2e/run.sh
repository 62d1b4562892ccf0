#!/usr/bin/env bash
# The one command: build the benchmark, then run every workload end to
# end and traced, each in its own child process. Prints every metric by
# name with its unit, runs the correctness gate inside every run, and
# writes results/BENCH_e2e.json (plus results/e2e_trace_<workload>.jsonl).
# Extra arguments go to bench_e2e: --quick, --seed N, --seconds S,
# --repeat K [--agree].
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --offline --manifest-path bench/e2e/Cargo.toml
exec "${CARGO_TARGET_DIR:-bench/e2e/target}/release/bench_e2e" --all --traced "$@"
