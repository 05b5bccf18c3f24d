#!/usr/bin/env bash
# CI gate for the cell-level sweep scheduler:
#
#   1. runs a small fig9-style sweep twice, --threads 1 vs --threads 0,
#      both uncached, and fails if any row differs (elapsed_ms excluded —
#      it is a wall-clock measurement, not simulation output);
#   2. emits results/BENCH_sweep.json from the parallel run, which CI
#      uploads as an artifact so sweep throughput is tracked per commit;
#   3. runs the same sweep through the store: cold on a fresh cache dir
#      (each trace's first cell simulates off its streamed capture, the
#      others wait for it or replay the stored entry), then warm (every
#      row from the result cache, nothing simulated). Both must match
#      the uncached rows, elapsed_ms excluded.
#
# Usage: scripts/ci_sweep_gate.sh [INSTS] (default 20000)
set -euo pipefail
cd "$(dirname "$0")/.."
INSTS="${1:-20000}"
TRACES="spec.gcc,games.quake"

cargo build --release -p xbc-bench
mkdir -p results
B=target/release

"$B/fig9" --inst "$INSTS" --traces "$TRACES" --threads 1 --no-cache \
  --json results/ci_rows_t1.json > /dev/null
"$B/fig9" --inst "$INSTS" --traces "$TRACES" --threads 0 --no-cache \
  --json results/ci_rows_t0.json --bench-json results/BENCH_sweep.json > /dev/null

# Strip the one timing-derived field; everything else must be
# bit-identical across thread counts.
grep -v '"elapsed_ms"' results/ci_rows_t1.json > results/ci_rows_t1.cmp
grep -v '"elapsed_ms"' results/ci_rows_t0.json > results/ci_rows_t0.cmp
if ! diff -u results/ci_rows_t1.cmp results/ci_rows_t0.cmp; then
  echo "FAIL: parallel sweep rows differ from --threads 1" >&2
  exit 1
fi
echo "OK: rows bit-identical across thread counts ($TRACES x 12 configs, $INSTS insts)"

CACHE=target/ci-sweep-cache
rm -rf "$CACHE"
for run in cold warm; do
  "$B/fig9" --inst "$INSTS" --traces "$TRACES" --threads 0 --cache-dir "$CACHE" \
    --json "results/ci_rows_$run.json" --bench-json "results/ci_rows_$run.bench.json" > /dev/null
  grep -v '"elapsed_ms"' "results/ci_rows_$run.json" > "results/ci_rows_$run.cmp"
  if ! diff -u results/ci_rows_t1.cmp "results/ci_rows_$run.cmp"; then
    echo "FAIL: $run store-backed sweep rows differ from the uncached rows" >&2
    exit 1
  fi
done
if ! grep -q '"simulated_cells": 0' results/ci_rows_warm.bench.json; then
  echo "FAIL: the warm store-backed sweep simulated cells" >&2
  exit 1
fi
rm -rf "$CACHE"
echo "OK: cold and warm store-backed rows match the uncached rows"
echo "bench: $(cat results/BENCH_sweep.json)"
