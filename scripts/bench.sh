#!/usr/bin/env bash
# bench.sh — run the runtime-facing benchmark suite and emit BENCH_runtime.json.
#
# The suite covers the root per-artifact benchmarks and the internal/dist
# engine/runner benchmarks with -benchmem, so the JSON tracks wall-clock
# (ns/op), allocation behavior (B/op, allocs/op), and the LOCAL-model custom
# metrics (rounds, msgBytes, colors, ...) per benchmark. The engine
# benchmarks emit one row per engine per workload
# (BenchmarkEngines/{fresh,steady,hotpath}/{goroutines,lockstep,sharded,compiled}),
# so BENCH_runtime.json shows the whole engine trajectory — including the
# compiled hot-path speedup — side by side. BenchmarkMissShapes (root
# package) adds one row per colord cache-miss shape: algreg-resolved
# algorithms on a warm dist.Pool under the Compiled engine, with exact
# rounds and msgBytes. BenchmarkDurableMutate/log={1k,32k} is one 16-op
# mutate batch on a live WAL-backed colord session whose log holds 1k or
# 32k records; the two rows agree because requests never read the log.
#
#
# BenchmarkMissShapes rows run tens of microseconds per op, so a count
# BENCHTIME below 200x (the CI smoke's 1x) would time mostly cold-start
# costs there; those rows then run at a fixed 200x instead, the rest of
# the suite at BENCHTIME.
#
# Usage:
#   scripts/bench.sh                 # full run, writes BENCH_runtime.json
#   BENCHTIME=1x scripts/bench.sh    # quick smoke (CI uses this)
#   OUT=/dev/stdout scripts/bench.sh # print the JSON instead
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_runtime.json}"
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT

if [[ "$BENCHTIME" =~ ^([0-9]+)x$ ]] && (( BASH_REMATCH[1] < 200 )); then
  go test -run '^$' -bench . -skip 'BenchmarkMissShapes' -benchmem -benchtime "$BENCHTIME" . ./internal/dist/ | tee "$TXT"
  go test -run '^$' -bench 'BenchmarkMissShapes' -benchmem -benchtime 200x . | tee -a "$TXT"
else
  go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" . ./internal/dist/ | tee "$TXT"
fi
go run ./cmd/benchjson < "$TXT" > "$OUT"
echo "wrote $OUT" >&2
