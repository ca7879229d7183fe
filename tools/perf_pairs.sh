#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the procedure
# behind every speed claim in CHANGES.md and EXPERIMENTS.md "Performance".
#
#   tools/perf_pairs.sh <parent-ref> <workload> [pairs=10] [seconds=15] [seed0=9701]
#
# Checks <parent-ref> out into a scratch directory (under $TMPDIR, removed on
# exit) and copies the working tree (tracked and untracked files, not ignored
# ones) beside it, as `parent/` and `change/`; builds each side's benchmark/
# there with a target directory of its own. The two checkout paths have the
# same length on purpose: the repository's crates are path dependencies of
# benchmark/, so their panic locations are absolute paths in the binary's
# read-only data, ahead of its code, and a longer path moves every function
# (a moved loop alone can shift model_exact by several per cent); then
# runs `--workload W --seed S --trace 0` from each side's benchmark/
# directory, pair i on seed0+i-1, the side that goes first alternating.
# Prints one row per pair (iter_s.p50), then for each end-to-end metric each
# side's q1 / median / q3 and the pairs the change won, both sides' total of
# failed operations, and both sides' digest for the first seed (equal digests:
# the two sides did the same work). Stops, naming the side, the seed and the
# run's attempted / failed counts, as soon as either binary exits non-zero or
# reports "correct":false: a failed run is not a timing.
# Edits nothing in the working tree: both sides build in their scratch
# copies.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,24p' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-15}
seed0=${5:-9701}

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scratch="$(mktemp -d)"
# The scratch copy is a plain checkout (git archive), not a `git worktree`:
# nothing is registered in .git, so there is nothing to prune on exit.
trap 'rm -rf "$scratch"' EXIT

mkdir "$scratch/parent"
git -C "$repo" archive "$parent_ref" | tar -x -C "$scratch/parent"
echo "building $parent_ref ..." >&2
CARGO_TARGET_DIR="$scratch/parent-target" cargo build --release --offline --quiet \
    --manifest-path "$scratch/parent/benchmark/Cargo.toml" >&2
mkdir "$scratch/change"
git -C "$repo" ls-files -z --cached --others --exclude-standard \
    | tar -C "$repo" -c --null -T - --ignore-failed-read | tar -x -C "$scratch/change"
echo "building the working tree ..." >&2
CARGO_TARGET_DIR="$scratch/change-target" cargo build --release --offline --quiet \
    --manifest-path "$scratch/change/benchmark/Cargo.toml" >&2

parent_bin="$scratch/parent-target/release/dmp-benchmark"
change_bin="$scratch/change-target/release/dmp-benchmark"

# The end-to-end metrics of BENCHMARK.json and which way is better.
metrics=(iter_s.p50 work_per_s setup_s peak_rss_mb)
better=(lower higher lower lower)

# run <side> <side-dir> <binary> <seed>: one untraced run, called in the
# script's own shell (not in a substitution) so that a failed side stops
# everything: a binary that exits non-zero or reports "correct":false ran a
# different workload than the one being timed, and its row must not be
# averaged. Appends each metric to $scratch/<side>.<metric> and the run's
# failed count to $scratch/<side>.failed; leaves "<iter_s.p50> <digest>" in
# $scratch/<side>.row.
run() {
    local out="$scratch/$1.out" status=0
    (cd "$2/benchmark" && "$3" --workload "$workload" --seed "$4" \
        --seconds "$seconds" --trace 0) > "$out" || status=$?
    local attempted failed
    attempted=$(sed -n 's/.*"attempted":\([0-9]*\).*/\1/p' "$out" | tail -n 1)
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$out" | tail -n 1)
    if [ "$status" -ne 0 ] || grep -q '"correct":false' "$out"; then
        echo "perf_pairs: the $1 side failed on seed $4 (exit status $status):" \
            "attempted ${attempted:-?}, failed ${failed:-?}" >&2
        return 1
    fi
    echo "${failed:-0}" >> "$scratch/$1.failed"
    awk -v out="$scratch/$1" -v names="${metrics[*]}" '
        { value[$1] = $2 }
        END {
            n = split(names, name, " ")
            for (i = 1; i <= n; i++) {
                if (!(name[i] in value)) exit 1
                print value[name[i]] >> (out "." name[i])
            }
            print value["iter_s.p50"], value["digest"]
        }' "$out" > "$scratch/$1.row"
}

# quartiles <file>: q1 / median / q3 (linear interpolation) of one column.
quartiles() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = 1 + (NR - 1) * p; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.4f / %.4f / %.4f", q(0.25), q(0.5), q(0.75) }'
}

printf '%-5s %-6s %-7s %10s %10s %8s\n' pair seed first parent_s change_s delta
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        first=parent
        run parent "$scratch/parent" "$parent_bin" "$seed"
        run change "$scratch/change" "$change_bin" "$seed"
    else
        first=change
        run change "$scratch/change" "$change_bin" "$seed"
        run parent "$scratch/parent" "$parent_bin" "$seed"
    fi
    read -r p dp < "$scratch/parent.row"
    read -r c dc < "$scratch/change.row"
    if [ "$i" -eq 1 ]; then
        digests="digest (seed $seed): parent $dp  change $dc"
    fi
    printf '%-5s %-6s %-7s %10.4f %10.4f %+7.1f%%\n' "$i" "$seed" "$first" "$p" "$c" \
        "$(awk -v p="$p" -v c="$c" 'BEGIN { print (c / p - 1) * 100 }')"
done

echo
echo "$workload, $pairs pairs, q1 / median / q3:"
for k in "${!metrics[@]}"; do
    m=${metrics[$k]}
    won=$(paste "$scratch/parent.$m" "$scratch/change.$m" | awk -v dir="${better[$k]}" '
        (dir == "lower" && $2 < $1) || (dir == "higher" && $2 > $1) { won++ }
        END { print won + 0 }')
    printf '%-12s parent %s   change %s   change won %s/%s (%s is better)\n' \
        "$m" "$(quartiles "$scratch/parent.$m")" "$(quartiles "$scratch/change.$m")" \
        "$won" "$pairs" "${better[$k]}"
done
total() { awk '{ s += $1 } END { print s + 0 }' "$1"; }
echo "failed operations over all runs: parent $(total "$scratch/parent.failed")," \
    "change $(total "$scratch/change.failed")"
echo "$digests"
