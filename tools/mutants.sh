#!/usr/bin/env bash
# Apply one mutant (a patch to production code) to a scratch copy of the
# working tree, run the test suite there, and list the tests it turns red.
#
#   tools/mutants.sh <patch> [test filter...]
#
# <patch> is a unified diff against the repository root (one per plausible
# bug, kept under tools/mutants/). The copy holds the tracked and untracked
# files (not ignored ones) and lives under $TMPDIR, removed on exit; the
# working tree is never edited. The test filter goes to `cargo test` as is:
# a test-name filter (`dmp_beats_static`) or cargo's own selectors
# (`--test sim_vs_model`); without one, the whole workspace runs, as tier-1
# does, with --no-fail-fast. The copy builds into $CARGO_TARGET_DIR when it
# is set (so several mutants can share one build directory), else into its
# own target/.
# Builds the copy's tests first, then runs them under a wall-clock limit
# (LIMIT_S below), so a mutant that hangs a test cannot hang the tool.
# Prints each failing test as `<test binary> <source>::<test>`, each test
# binary that crashed without a failing test (abort, stack overflow, a
# signal) as `<test binary> <source>: <how it exited>`, and the binary that
# was running when the limit struck as `<test binary> <source>: timed out`;
# then a verdict line.
# Exit status: 0 when a test fails, a test binary crashes or the run times
# out (the mutant is killed), 1 when cargo exits 0 (it survives), 2 when the
# patch does not apply, the mutant does not build, or cargo fails in a way
# that names no test binary.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
patch=$(realpath "$1")
shift

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

git -C "$repo" ls-files -z --cached --others --exclude-standard \
    | tar -C "$repo" -c --null -T - --ignore-failed-read | tar -x -C "$scratch"
if ! git -C "$scratch" apply "$patch"; then
    echo "mutant $(basename "$patch"): the patch does not apply" >&2
    exit 2
fi

LIMIT_S=1800
log="$scratch/test.log"
name=$(basename "$patch")
echo "building mutant $name ..." >&2
if ! (cd "$scratch" && cargo test --offline --no-run "$@") >"$log" 2>&1; then
    grep -m1 -B2 -A12 '^error' "$log" >&2 || tail -n 20 "$log" >&2
    echo "mutant $name: does not build" >&2
    exit 2
fi

echo "testing mutant $name ..." >&2
set +e
(cd "$scratch" && timeout --kill-after=30 "$LIMIT_S" cargo test --offline --no-fail-fast "$@") \
    >"$log" 2>&1
status=$?
set -e

# `Running tests/x.rs (target/debug/deps/x-<hash>)`, `Running unittests
# src/lib.rs (…/deps/<crate>-<hash>)` and `Doc-tests <crate>` name the binary
# whose `test … FAILED` lines, or whose cargo `process didn't exit
# successfully: `…` (signal: …)` line, follow.
failed=$(awk -v timed_out=$([ $status -eq 124 ] && echo 1 || echo 0) '
    $1 == "Running" {
        src = ($2 == "unittests") ? $3 : $2
        bin = $NF; sub(/\)$/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
        cur = bin " " src
    }
    $1 == "Doc-tests" { cur = $2 " doc" }
    $1 == "test" && $NF == "FAILED" {
        t = $0; sub(/^test /, "", t); sub(/ \.\.\. FAILED$/, "", t)
        print cur "::" t; seen[cur] = 1
    }
    /process didn.t exit successfully/ && !(cur in seen) {
        how = $0; sub(/.*` /, "", how); print cur ": " how; seen[cur] = 1
    }
    END { if (timed_out && cur != "") print cur ": timed out" }
' "$log" | sort -u)

if [ -n "$failed" ]; then
    echo "$failed"
    [ $status -eq 124 ] && echo "(the run stopped at the ${LIMIT_S} s limit)"
    echo "mutant $name: killed by $(echo "$failed" | wc -l) test(s) or test binaries"
    exit 0
fi
if [ $status -ne 0 ]; then
    tail -n 20 "$log" >&2
    echo "mutant $name: cargo test exited $status and named no failing test" >&2
    exit 2
fi
echo "mutant $name: survived (every selected test passed)"
exit 1
