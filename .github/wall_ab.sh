#!/usr/bin/env bash
# Same-job host-time A/B of the simulator: build `benchmark/` at a base
# commit and at HEAD, run pairs of one workload, and fail when the median
# per-pair `wall_rel` ratio (HEAD / base) exceeds BOUND.
#
#   .github/wall_ab.sh [BASE]      # BASE defaults to HEAD^
#
# Run from the root of a clone that holds both commits. Each commit is
# extracted and built once under ${TMPDIR:-/tmp}/wall-ab/<sha> (target
# directory <sha>-target); a second run on the same commits reuses the
# builds. Exit status: 0 within the bound or skipped, 1 slower than the
# bound, 2 when a side fails to build or a benchmark run fails.
#
# Only interleaved pairs compare on a shared host: one binary's runs can
# read 1.6-1.9x their floor while the host is busy, and `wall_rel` (the
# fastest sample over the fastest reference loop) does not cancel that.
# Such runs come and go independently of the code, so the median over
# many short pairs is what settles. Which side runs first is drawn for
# each pair: a strict base/HEAD, HEAD/base order put the slow runs on the
# base side in 8 of 9 pairs of one A/A run. BOUND was set from 20 A/A
# runs of this script (CHANGES.md) on a 2-vCPU shared host, not on the
# CI runner class.
set -euo pipefail

WORKLOAD=advisor
PAIRS=41
RUN_SECONDS=1
BOUND=1.10

base=$(git rev-parse --verify "${1:-HEAD^}^{commit}")
head=$(git rev-parse --verify "HEAD^{commit}")
if ! git diff --quiet "$base" "$head" -- benchmark BENCHMARK.json; then
    echo "wall A/B skipped: benchmark/ or BENCHMARK.json differ between" \
        "${base:0:12} and ${head:0:12}, so the two sides measure different things"
    exit 0
fi

work=${TMPDIR:-/tmp}/wall-ab
mkdir -p "$work"
# Build one commit's benchmark and print the executable's path. The tree
# is extracted fresh each time; its files carry the commit's time, so an
# existing build of the same commit stays up to date.
build() {
    rm -rf "${work:?}/$1"
    mkdir -p "$work/$1"
    git archive "$1" | tar -x -C "$work/$1"
    if ! CARGO_TARGET_DIR="$work/$1-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$1/benchmark/Cargo.toml" >&2; then
        echo "wall A/B: cannot build benchmark/ at $1" >&2
        exit 2
    fi
    echo "$work/$1-target/release/ps-benchmark"
}
base_bin=$(build "$base")
head_bin=$(build "$head")

# One untraced run; prints its wall_rel.
wall_rel() {
    local out
    if ! out=$("$1" --workload "$WORKLOAD" --seconds "$RUN_SECONDS" 2>/dev/null); then
        echo "wall A/B: a $WORKLOAD run of $1 failed" >&2
        exit 2
    fi
    if ! printf '%s\n' "$out" | tail -n 1 | jq -e '.metrics.wall_rel.value | numbers'; then
        echo "wall A/B: a $WORKLOAD run of $1 printed no wall_rel" >&2
        exit 2
    fi
}

echo "wall A/B: $WORKLOAD, $PAIRS pairs of ${RUN_SECONDS} s runs," \
    "base ${base:0:12}, HEAD ${head:0:12}"
ratios=()
for i in $(seq "$PAIRS"); do
    if [ $((RANDOM % 2)) = 0 ]; then
        b=$(wall_rel "$base_bin")
        h=$(wall_rel "$head_bin")
    else
        h=$(wall_rel "$head_bin")
        b=$(wall_rel "$base_bin")
    fi
    r=$(awk -v h="$h" -v b="$b" 'BEGIN { printf "%.4f", h / b }')
    ratios+=("$r")
    echo "  pair $i: base $b, HEAD $h, ratio $r"
done
median=$(printf '%s\n' "${ratios[@]}" | sort -g |
    awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
if awk -v m="$median" -v b="$BOUND" 'BEGIN { exit !(m > b) }'; then
    echo "wall A/B: FAIL, median ratio $median exceeds the bound $BOUND"
    exit 1
fi
echo "wall A/B: ok, median ratio $median within the bound $BOUND"
