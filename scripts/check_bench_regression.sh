#!/usr/bin/env bash
# Bench-JSON perf regression gate (the CI step after the smoke-test run):
# diffs the gated metrics of the BENCH_*.json files a CTest run dropped
# (FSD_BENCH_JSON) against the checked-in tiny-scale baselines in
# fsd_bench_cache/bench_baselines/, and fails on any metric that regressed
# by more than 25%. The gate is direction-aware:
#   - p50/p95 latency metrics: BIGGER is worse. These are virtual-time
#     deterministic, so a diff is a real behaviour change, never noise.
#   - cost-shaped metrics (*dollars_per_query, *cost_per_query,
#     *_daily_cost, *send_wire_bytes, *storage_loads, *comm_per_round):
#     BIGGER is worse. Also virtual and exact, so they catch a framing or
#     billing change that moves bytes or dollars without moving latency.
#   - *_per_sec throughput metrics (events_per_sec, bytes_per_sec, ...):
#     SMALLER is worse. These are wall-clock, so the threshold also absorbs
#     machine noise; bench_trace_replay reports the best of several timed
#     replays so one descheduled run cannot trip it.
# The generous threshold leaves room for intentional scheduling/latency-
# model changes (refresh the baselines in the same PR when one is
# deliberate).
#
# usage: check_bench_regression.sh <json-dir> [--warn-only]
#   --warn-only: report regressions without failing (the ASan job — same
#   virtual numbers, but it should never be the job that blocks a merge).
#
# Refresh baselines with:
#   FSD_BENCH_SCALE=tiny FSD_BENCH_JSON=fsd_bench_cache/bench_baselines \
#     ctest --test-dir build -R '_smoke$'
set -euo pipefail
cd "$(dirname "$0")/.."

json_dir="${1:?usage: check_bench_regression.sh <json-dir> [--warn-only]}"
warn_only=0
[ "${2:-}" = "--warn-only" ] && warn_only=1
baseline_dir="fsd_bench_cache/bench_baselines"
threshold_pct=25

# "key value direction" lines for the gated metrics: latency-shaped and
# cost-shaped keys (bigger is worse) and throughput keys ending in _per_sec
# (smaller is worse). Other keys (speedups, reductions, counts) are
# informational only.
cost_keys='(dollars_per_query|cost_per_query|_daily_cost|send_wire_bytes|storage_loads|comm_per_round)$'
metrics() {
  sed -n 's/^ *"\([-A-Za-z0-9_.]*\)": *\(-*[0-9][-0-9.eE+]*\),*$/\1 \2/p' \
    "$1" | awk -v cost="$cost_keys" '
      $1 ~ /p50|p95/ || $1 ~ cost { print $0, "bigger-is-worse"; next }
      $1 ~ /_per_sec$/ { print $0, "smaller-is-worse" }' \
    || true
}

fail=0
checked=0
# New benches (run emitted JSON, no baseline yet) are reported but pass;
# the reverse — a baselined bench whose JSON is missing from the run — is
# a FAILURE, or a broken smoke test would silently drop its metrics from
# the gate.
for current in "$json_dir"/BENCH_*.json; do
  [ -e "$current" ] || { echo "no BENCH_*.json under $json_dir"; exit 1; }
  name=$(basename "$current")
  if [ ! -f "$baseline_dir/$name" ]; then
    echo "NEW BENCH (no baseline yet): $name — check one in"
  fi
done
for baseline in "$baseline_dir"/BENCH_*.json; do
  [ -e "$baseline" ] || { echo "no baselines under $baseline_dir"; exit 1; }
  name=$(basename "$baseline")
  current="$json_dir/$name"
  if [ ! -f "$current" ]; then
    echo "MISSING BENCH JSON: $name has a baseline but the run produced none"
    fail=1
    continue
  fi
  while IFS=' ' read -r key base dir; do
    [ -n "$key" ] || continue
    cur=$(metrics "$current" | awk -v k="$key" '$1 == k { print $2 }')
    if [ -z "$cur" ]; then
      echo "MISSING METRIC: $name $key (baseline has it, run does not)"
      fail=1
      continue
    fi
    checked=$((checked + 1))
    verdict=$(awk -v c="$cur" -v b="$base" -v t="$threshold_pct" \
              -v d="$dir" 'BEGIN {
      if (b <= 1e-9) { print "ok"; exit }
      delta = (c - b) / b * 100.0
      if (d == "smaller-is-worse") delta = -delta
      if (delta > t) printf "regressed %.1f%%", delta
      else print "ok"
    }')
    if [ "$verdict" != "ok" ]; then
      echo "REGRESSION: $name $key $base -> $cur ($verdict, threshold ${threshold_pct}%)"
      fail=1
    fi
  done < <(metrics "$baseline")
done

if [ "$checked" -eq 0 ]; then
  echo "bench regression check: no comparable gated metrics found"
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  if [ "$warn_only" -eq 1 ]; then
    echo "bench regression check: REGRESSIONS found ($checked metrics; warn-only)"
    exit 0
  fi
  echo "bench regression check FAILED ($checked metrics compared)"
  exit 1
fi
echo "bench regression check OK ($checked gated metrics within ${threshold_pct}%)"
