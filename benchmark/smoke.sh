#!/usr/bin/env bash
# Quick end-to-end check of the benchmark: runs every workload with
# --quick, one traced run, and fails if the workload or metric names that
# come out differ from BENCHMARK.json in either direction, or if any run
# is incorrect. About a minute after the build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="benchmark/out/smoke.jsonl"
rm -f "$out"

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

bench run --all --quick --out "$out" > benchmark/out/smoke-run.log
# The layer probes are the same on every workload; one traced run names them all.
bench trace --workload warm-serve --quick --out "$out" > benchmark/out/smoke-trace.log

# `"key": "value"` pairs of one kind, one per line, sorted.
values() { grep -o "\"$1\": *\"[^\"]*\"" | sed 's/.*: *"\(.*\)"/\1/' | sort -u; }
section() { sed -n "/\"$1\": \[/,/^  \]/p" BENCHMARK.json; }

status=0
check() {
    if ! diff <(echo "$2") <(echo "$3") > /dev/null; then
        echo "smoke: $1 differ (< BENCHMARK.json, > printed):"
        diff <(echo "$2") <(echo "$3") || true
        status=1
    fi
}
check "workload names" "$(section workloads | values name)" "$(grep '"trace":0' "$out" | values workload)"
check "end-to-end metric names" "$(section end_to_end | values name)" "$(grep '"trace":0' "$out" | values metric)"
check "per-layer metric names" "$(section per_layer | values name)" "$(grep '"trace":1' "$out" | values metric)"
[ "$status" -eq 0 ] && echo "smoke: names agree with BENCHMARK.json, every run correct"
exit "$status"
