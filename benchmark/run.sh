#!/usr/bin/env bash
# Build the benchmark (release, the users' profile) and run it.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --sets 5             ... five times, with the noise ledger
#   benchmark/run.sh --smoke              one iteration each, all checks on
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is its JSON
#   benchmark/run.sh --tables             README tables from out/results.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo's own output goes to stderr: stdout carries only the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/dmp-benchmark" "$@"
