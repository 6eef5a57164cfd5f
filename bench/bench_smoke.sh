#!/usr/bin/env bash
# Smoke-runs every bench binary at a tiny scale so the bench suite cannot
# silently bit-rot: each binary must exit 0. Wired into CTest as the
# `bench_smoke` label (ctest -L bench_smoke); also runnable by hand:
#
#   bench/bench_smoke.sh <build_dir>
#
# DUET_BENCH_SCALE shrinks datasets/workloads/training budgets; 0.05 keeps
# the whole sweep in CI-friendly time.
set -u
BUILD_DIR="${1:-build}"
export DUET_BENCH_SCALE="${DUET_BENCH_SCALE:-0.05}"

status=0
ran=0
for bin in "$BUILD_DIR"/bench_*; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  name="$(basename "$bin")"
  extra=""
  case "$name" in
    # Keep the inference sweep short; coverage, not measurement. The
    # backend sweep's default is every packed-weight backend, so each one
    # compiles and runs its plan, and the tiny --live_update run exercises
    # the registry/hot-swap/worker pipeline end to end.
    bench_table3_throughput)
      extra="--sweep_queries=64 --sweep_min_seconds=0.05"
      extra="$extra --live_update --live_queries=128 --live_publishes=1"
      extra="$extra --live_min_seconds=0.5 --live_max_seconds=30"
      # The overload sweep smoke-runs the admission-control path (bounded
      # queue + deadlines + shed-to-fallback) at a sub-second phase length.
      extra="$extra --overload --overload_seconds=0.5" ;;
    # Small fleet + sub-second steady phase keeps the zoo smoke quick while
    # still exercising cold-start loads, Zipf traffic, eviction churn and
    # the zero-repack assertion (the binary exits nonzero if any zoo load
    # or serve repacked weights).
    bench_zoo)
      extra="--models=24 --cold_samples=16 --steady_seconds=0.3" ;;
    # Sub-second closed-loop phases over loopback: exercises the epoll
    # server, the DuetRpc codec, wire batching and the open-loop pacer
    # without turning the smoke into a throughput measurement.
    bench_net)
      extra="--net_min_seconds=0.15 --conns_sweep=1,4" ;;
    # Few queries + a short training budget keep the optimizer-in-the-loop
    # bench quick; the binary still plans through the zoo-mode serving
    # engine and exits nonzero unless the oracle provider reproduces the
    # optimal plan on every query (P-error == 1.0 exactly).
    bench_optimizer_plancost)
      extra="--queries=10 --epochs=6" ;;
  esac
  start=$(date +%s)
  if "$bin" $extra >/dev/null 2>&1; then
    echo "ok   $name ($(($(date +%s) - start))s)"
  else
    echo "FAIL $name (exit $?)"
    status=1
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "no bench binaries found under $BUILD_DIR" >&2
  exit 1
fi
exit $status
