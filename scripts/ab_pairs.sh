#!/usr/bin/env bash
# Compares one benchmark workload between a parent revision and the
# working tree, in alternating pairs of runs.
#
# Usage:
#     scripts/ab_pairs.sh PARENT_REV WORKLOAD PAIRS [SECONDS]
#
# Both sides are built from `git archive` copies — the parent from
# PARENT_REV, the change from the working tree as it is (tracked and
# untracked files that are not ignored, staged through a scratch index,
# so the real index is left alone) — each with its own target directory,
# all under one temporary directory that is removed on exit. Building
# both the same way keeps `peak_rss_mb` comparable.
#
# Pair i (1-based) runs both sides with `--seed i` for SECONDS (default
# 15, the benchmark's own run length); odd pairs run the parent first,
# even pairs the change first. Every run is printed as it finishes, then,
# for each end-to-end metric the benchmark declares — `ops_per_s` (higher
# is better), `peak_rss_mb` and `setup_s` (lower is better) — each side's
# median and quartiles (linear interpolation between order statistics)
# and the pairs the change won, and last the median of the per-pair
# `ops_per_s` ratios change / parent.
#
# Needs only git, tar, cargo, sort and awk. The working tree and the
# index are left as they are; staging the change adds objects to git's
# object store and nothing else.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_REV WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
}

[[ $# -eq 3 || $# -eq 4 ]] || usage
parent_rev=$1
workload=$2
pairs=$3
seconds=${4:-15}
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ ]] || usage

repo=$(git rev-parse --show-toplevel)
parent=$(git -C "$repo" rev-parse --verify --quiet "$parent_rev^{commit}") || {
    echo "$0: no commit named $parent_rev" >&2
    exit 2
}
work=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

change=$(
    export GIT_INDEX_FILE="$work/index"
    cd "$repo" && git add -A && git write-tree
)

for side in parent change; do
    rev=$parent
    [[ $side == change ]] && rev=$change
    mkdir "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    echo "building $side ($rev)" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
        cargo build --release --offline -q --manifest-path benchmark/Cargo.toml)
done

# The value of metric $1 in the benchmark's JSON result line on stdin.
metric() {
    sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
}

# Runs side $1 with seed $2 and appends "pair side ops rss setup failed".
run() {
    local result
    result=$(cd "$work/$1" && "$work/$1-target/release/benchmark" run \
        --workload "$workload" --seconds "$seconds" --seed "$2" \
        --out "$work/out" | tail -n 1)
    local line
    line="$2 $1 $(metric ops_per_s <<<"$result") $(metric peak_rss_mb <<<"$result")"
    line="$line $(metric setup_s <<<"$result")"
    line="$line $(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$result")"
    echo "$line" >>"$work/runs"
    awk '{ printf "pair %2d %-6s ops_per_s %10.2f  peak_rss_mb %6.2f  setup_s %.4f  failed %s\n",
           $1, $2, $3, $4, $5, $6 }' <<<"$line"
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done

# Median and quartiles of the sorted numbers on stdin, with $1 decimals.
quartiles() {
    awk -v digits="$1" '{ v[NR] = $1 }
         function q(p,   h, i) {
             h = 1 + p * (NR - 1); i = int(h)
             return i < NR ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[NR]
         }
         END {
             f = "%." digits "f"
             printf "median " f "  q1 " f "  q3 " f "  iqr " f, q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25)
         }'
}

echo "# $workload, $pairs pairs of ${seconds} s, parent $parent against the working tree"
# Each end-to-end metric: its column in the runs file, whether higher is
# better, and the decimals to print.
for spec in "ops_per_s 3 higher 2" "peak_rss_mb 4 lower 2" "setup_s 5 lower 4"; do
    read -r name column better digits <<<"$spec"
    for side in parent change; do
        printf '%-6s %-11s %s\n' "$side" "$name" \
            "$(awk -v side=$side -v c=$column '$2 == side { print $c }' "$work/runs" |
                sort -g | quartiles "$digits")"
    done
    awk -v c=$column -v better=$better '
        $2 == "parent" { p[$1] = $c } $2 == "change" { ch[$1] = $c }
        END {
            for (k in p) {
                n++
                if (better == "higher" ? ch[k] > p[k] : ch[k] < p[k]) wins++
            }
            printf "change won %d of %d pairs on %s (%s is better)\n", wins, n, name, better
        }' name="$name" "$work/runs"
done
awk '$2 == "parent" { p[$1] = $3 } $2 == "change" { c[$1] = $3 }
     END { for (k in p) print c[k] / p[k] }' "$work/runs" | sort -g |
    awk '{ r[NR] = $1 }
         END {
             m = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
             printf "median pair ratio of ops_per_s, change/parent %.3f\n", m
         }'
