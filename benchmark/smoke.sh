#!/usr/bin/env bash
# Smoke test of the repo benchmark: every workload for one second, timed
# and traced, checking the result line's schema and the run's own checks.
# Run from the repo root; a later PR can wire this into CI.
#
#   bash benchmark/smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

cargo build --release --offline --quiet --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"

run() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- run "$@"
}

check_line() {
    # $1 = last stdout line, $2 = metrics section of BENCHMARK.json to match
    python3 - "$1" "$2" <<'EOF'
import json, sys
line, section = sys.argv[1], sys.argv[2]
result = json.loads(line)
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True, "run reported an incorrect output"
assert isinstance(result["attempted"], int) and result["attempted"] >= 1
assert result["failed"] == 0
declared = json.load(open("BENCHMARK.json"))[section]
assert set(result["metrics"]) == {m["name"] for m in declared}, "metric set differs"
units = {m["name"]: m["unit"] for m in declared}
for name, metric in result["metrics"].items():
    assert set(metric) == {"value", "unit"}, name
    assert metric["unit"] == units[name], name
    assert isinstance(metric["value"], (int, float)), name
    if section == "end_to_end":
        assert metric["value"] > 0, f"{name} is not positive"
EOF
}

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    for trace in 0 1; do
        section=end_to_end
        [ "$trace" = 1 ] && section=per_layer
        echo "smoke: $workload --trace $trace"
        last=$(run --workload "$workload" --seed 1 --seconds 1 --trace "$trace" --out "$out_dir" | tail -n 1)
        check_line "$last" "$section"
    done
    test -s "$out_dir/trace-$workload.json"
    python3 -c 'import json, sys; t = json.load(open(sys.argv[1])); assert t["spans"], "no spans"' \
        "$out_dir/trace-$workload.json"
done
echo "smoke: ok"
