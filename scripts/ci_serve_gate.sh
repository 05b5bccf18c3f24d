#!/usr/bin/env bash
# CI gate for the sweep service daemon (DESIGN.md §13, §15), run over
# BOTH transports — a Unix socket and TCP loopback:
#
#   1. warm gate: a one-shot cached `xbcsim sweep` fixes the expected
#      row bytes, then two concurrent clients submit the same grid and
#      must get byte-identical rows with zero simulations and captures;
#      then, with the daemon still warm, one result file is deleted: the
#      next submit must simulate exactly that cell (its rows equal the
#      one-shot rows once elapsed_ms is stripped), and the one after it
#      must simulate nothing — the daemon's memory tier never serves a
#      row whose entry is gone;
#   2. cold-dedup gate: on a FRESH cache two concurrent clients submit
#      the same cold grid; `simulated_cells` summed across their bench
#      reports must equal the number of distinct cells — single-flight
#      dedup means nothing is ever simulated twice, however the two
#      requests interleave;
#   3. graceful shutdown, and (Unix) the socket file is gone;
#   4. the dedup and fault-injection test suites run under the `check`
#      feature.
#
# Usage: scripts/ci_serve_gate.sh [INSTS] (default 20000)
set -euo pipefail
cd "$(dirname "$0")/.."
INSTS="${1:-20000}"
TRACES="spec.gcc,games.quake"
GRID=(--traces "$TRACES" --frontends tc,xbc --sizes 8192 --inst "$INSTS")
# 2 traces x 2 frontend columns (tc, xbc@8192)
DISTINCT_CELLS=4
DISTINCT_TRACES=2

cargo build --release -p xbc-serve
mkdir -p results
B=target/release
SOCK=target/ci-serve.sock
PORT=$((21000 + RANDOM % 30000))

# serve_endpoint_args / submit_endpoint_args TRANSPORT
serve_args() {
  if [ "$1" = unix ]; then echo "--socket $SOCK"; else echo "--listen 127.0.0.1:$PORT"; fi
}
submit_args() {
  if [ "$1" = unix ]; then echo "--socket $SOCK"; else echo "--connect 127.0.0.1:$PORT"; fi
}

wait_live() { # TRANSPORT
  local i
  for i in $(seq 1 100); do
    # shellcheck disable=SC2046
    "$B/xbcsim" submit $(submit_args "$1") --ping on > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: daemon never answered a ping over $1" >&2
  exit 1
}

run_gate() { # TRANSPORT
  local T="$1"
  local CACHE="target/ci-serve-cache-$T"
  rm -rf "$CACHE" "$SOCK"

  # ── Warm gate: byte-identity against a one-shot sweep ──────────────
  "$B/xbcsim" sweep "${GRID[@]}" --cache "$CACHE" \
    --json "results/ci_serve_oneshot_$T.json" > /dev/null

  # shellcheck disable=SC2046
  "$B/xbcsim" serve $(serve_args "$T") --cache "$CACHE" &
  DAEMON=$!
  trap 'kill "$DAEMON" 2>/dev/null || true' EXIT
  wait_live "$T"

  for side in a b; do
    # shellcheck disable=SC2046
    "$B/xbcsim" submit $(submit_args "$T") "${GRID[@]}" \
      --json "results/ci_serve_rows_${T}_$side.json" \
      --bench-json "results/ci_serve_bench_${T}_$side.json" \
      > /dev/null 2> /dev/null &
    eval "CLIENT_${side^^}=$!"
  done
  wait "$CLIENT_A"
  wait "$CLIENT_B"

  for side in a b; do
    if ! cmp "results/ci_serve_oneshot_$T.json" "results/ci_serve_rows_${T}_$side.json"; then
      echo "FAIL($T): daemon rows (client $side) differ from one-shot sweep" >&2
      exit 1
    fi
    for want in '"simulated_cells": 0' '"captures": 0'; do
      if ! grep -q "$want" "results/ci_serve_bench_${T}_$side.json"; then
        echo "FAIL($T): warm submission (client $side) missing $want:" >&2
        cat "results/ci_serve_bench_${T}_$side.json" >&2
        exit 1
      fi
    done
  done

  # ── Forgotten row: delete one result file under the warm daemon ────
  FORGOTTEN=$(find "$CACHE/results" -name '*.xbr' | sort | head -n 1)
  rm -f "$FORGOTTEN"
  grep -v '"elapsed_ms"' "results/ci_serve_oneshot_$T.json" > "results/ci_serve_oneshot_$T.cmp"
  for pass in resim again; do
    # shellcheck disable=SC2046
    "$B/xbcsim" submit $(submit_args "$T") "${GRID[@]}" \
      --json "results/ci_serve_${pass}_rows_$T.json" \
      --bench-json "results/ci_serve_${pass}_bench_$T.json" > /dev/null 2> /dev/null
    grep -v '"elapsed_ms"' "results/ci_serve_${pass}_rows_$T.json" \
      > "results/ci_serve_${pass}_rows_$T.cmp"
    if ! cmp "results/ci_serve_oneshot_$T.cmp" "results/ci_serve_${pass}_rows_$T.cmp"; then
      echo "FAIL($T): rows after deleting $FORGOTTEN ($pass) differ from the one-shot sweep" >&2
      exit 1
    fi
    if [ "$pass" = resim ]; then want='"simulated_cells": 1'; else want='"simulated_cells": 0'; fi
    if ! grep -q "$want" "results/ci_serve_${pass}_bench_$T.json"; then
      echo "FAIL($T): submit after deleting one result file ($pass) missing $want:" >&2
      cat "results/ci_serve_${pass}_bench_$T.json" >&2
      exit 1
    fi
  done

  # ── Cold-dedup gate: fresh cache, two racing clients ───────────────
  # shellcheck disable=SC2046
  "$B/xbcsim" submit $(submit_args "$T") --shutdown on > /dev/null
  wait "$DAEMON"
  trap - EXIT
  rm -rf "$CACHE"

  # shellcheck disable=SC2046
  "$B/xbcsim" serve $(serve_args "$T") --cache "$CACHE" &
  DAEMON=$!
  trap 'kill "$DAEMON" 2>/dev/null || true' EXIT
  wait_live "$T"

  for side in a b; do
    # shellcheck disable=SC2046
    "$B/xbcsim" submit $(submit_args "$T") "${GRID[@]}" \
      --json "results/ci_serve_cold_rows_${T}_$side.json" \
      --bench-json "results/ci_serve_cold_bench_${T}_$side.json" \
      > /dev/null 2> /dev/null &
    eval "CLIENT_${side^^}=$!"
  done
  wait "$CLIENT_A"
  wait "$CLIENT_B"

  SIMULATED=$(grep -ho '"simulated_cells": [0-9]*' \
      "results/ci_serve_cold_bench_${T}_a.json" \
      "results/ci_serve_cold_bench_${T}_b.json" \
    | awk '{s += $2} END {print s}')
  if [ "$SIMULATED" -ne "$DISTINCT_CELLS" ]; then
    echo "FAIL($T): two racing cold clients simulated $SIMULATED cells; single-flight dedup requires exactly $DISTINCT_CELLS" >&2
    cat "results/ci_serve_cold_bench_${T}_a.json" "results/ci_serve_cold_bench_${T}_b.json" >&2
    exit 1
  fi
  # Capture identity: each cold trace is captured exactly once across
  # both racing clients — the streamed-capture flight's leader counts
  # it, cache hits and joiners don't.
  CAPTURES=$(grep -ho '"captures": [0-9]*' \
      "results/ci_serve_cold_bench_${T}_a.json" \
      "results/ci_serve_cold_bench_${T}_b.json" \
    | awk '{s += $2} END {print s}')
  if [ "$CAPTURES" -ne "$DISTINCT_TRACES" ]; then
    echo "FAIL($T): two racing cold clients captured $CAPTURES traces; streamed-capture dedup requires exactly $DISTINCT_TRACES" >&2
    cat "results/ci_serve_cold_bench_${T}_a.json" "results/ci_serve_cold_bench_${T}_b.json" >&2
    exit 1
  fi
  for side in a b; do
    if ! cmp -s "results/ci_serve_oneshot_$T.json" \
                "results/ci_serve_cold_rows_${T}_$side.json"; then
      echo "note($T): cold rows (client $side) differ from the warm run in elapsed_ms only (expected on a fresh cache)"
    fi
  done

  # shellcheck disable=SC2046
  "$B/xbcsim" submit $(submit_args "$T") --shutdown on > /dev/null
  wait "$DAEMON"
  trap - EXIT
  if [ "$T" = unix ] && [ -e "$SOCK" ]; then
    echo "FAIL: daemon left its socket behind: $SOCK" >&2
    exit 1
  fi
  echo "OK($T): warm byte-identity + forgotten row re-simulated once + cold dedup ($SIMULATED/$DISTINCT_CELLS simulated once) over $T"
}

run_gate unix
run_gate tcp

# ── Dedup + fault suites (both transports inside; faults need `check`)
cargo test -q --test serve_dedup --test serve_faults

echo "OK: serve gate passed over unix + tcp ($TRACES, $INSTS insts)"
