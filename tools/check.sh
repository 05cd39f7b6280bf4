#!/usr/bin/env bash
# tools/check.sh — the sanitizer and benchmark gates. CI runs each mode
# as one step (.github/workflows/ci.yml), so a local run checks exactly
# what CI checks.
#
#   tools/check.sh          # TSan pass + ASan/UBSan pass
#   tools/check.sh tsan     # ThreadSanitizer pass only
#   tools/check.sh asan     # ASan/UBSan pass only
#   tools/check.sh bench    # quick benchmarks + strict gate vs BENCH_baseline.json
#   tools/check.sh all      # both sanitizer passes + regular build + full ctest
#
# Each mode's wall-clock duration is printed at exit, so slow gates are
# visible at a glance (and CI log triage doesn't need timestamps).
#
# The ThreadSanitizer pass: gap::common::ThreadPool and its consumers
# (MC-STA, parameter sweeps, variation binning, incremental-STA
# wavefronts, lint's rule fan-out over one shared structural scan) must
# be race-free at any thread count, not merely deterministic; so must the
# observability layer (ctest -L obs: the
# flight recorder's seqlock ring, the telemetry counters on the STA hot
# path, gapd's SIGTERM drain).
#
# The ASan/UBSan pass: the untrusted-input readers must reject hundreds of
# mutated Liberty/Verilog inputs and argv mutants of every CLI without
# aborting AND without any latent memory or UB errors masked by a clean
# exit; the JSON Writer, the golden artifacts it renders, the gapd server
# suite, the STA oracle suite, the placer's flat-table oracle (place_test:
# CSR offset arithmetic) and the CLI suites run under the same fatal
# UBSan, and so does a real gapd that is SIGKILLed mid-burst and
# recovered from its journal (tools/serve_kill_recover.py).
#
# Build trees default to build-tsan / build-asan / build-bench next to
# the primary build/, overridable so CI and local runs never collide:
#
#   GAP_BUILD_TSAN=/tmp/ci-tsan GAP_BUILD_ASAN=/tmp/ci-asan tools/check.sh

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-sanitizers}"
case "$MODE" in
  sanitizers|tsan|asan|bench|all) ;;
  *)
    echo "check.sh: unknown mode '$MODE' (expected: tsan | asan | bench | all)" >&2
    exit 2
    ;;
esac

# Fail fast, with a message naming the missing prerequisite, instead of
# dying on an opaque cmake backtrace halfway through.
require() {
  if ! command -v "$1" >/dev/null 2>&1; then
    echo "check.sh: prerequisite '$1' not found in PATH — $2" >&2
    exit 3
  fi
}
require cmake "install CMake >= 3.16 (e.g. 'apt install cmake')"
if ! command -v c++ >/dev/null 2>&1 && ! command -v g++ >/dev/null 2>&1 \
    && ! command -v clang++ >/dev/null 2>&1; then
  echo "check.sh: no C++ compiler (c++/g++/clang++) found in PATH — install g++ or clang" >&2
  exit 3
fi

JOBS="${JOBS:-$(nproc)}"
BUILD_TSAN="${GAP_BUILD_TSAN:-build-tsan}"
BUILD_ASAN="${GAP_BUILD_ASAN:-build-asan}"
BUILD_BENCH="${GAP_BUILD_BENCH:-build-bench}"

# Per-mode wall clock, printed even when a gate fails partway through.
MODE_TIMES=""
print_mode_times() {
  if [ -n "$MODE_TIMES" ]; then
    echo "== wall durations =="
    printf '%b' "$MODE_TIMES"
  fi
}
trap print_mode_times EXIT
timed() {
  local label="$1"
  shift
  local start=$SECONDS
  "$@"
  MODE_TIMES="${MODE_TIMES}  ${label}: $((SECONDS - start))s\n"
}

run_tsan() {
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  local suites="parallel_test sta_test incremental_sta_test soa_graph_test
    lint_test"
  echo "== ThreadSanitizer build ($BUILD_TSAN) =="
  cmake -B "$BUILD_TSAN" -S . -DGAP_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  # shellcheck disable=SC2086  # word splitting of $suites is intended
  cmake --build "$BUILD_TSAN" -j "$JOBS" --target $suites obs_test gapd

  for suite in $suites; do
    echo "== $suite under TSan =="
    "$BUILD_TSAN/tests/$suite"
  done

  # obs_test plus the out-of-process SIGTERM drain of the TSan gapd.
  echo "== obs-labeled suite under TSan (ctest -L obs) =="
  ctest --test-dir "$BUILD_TSAN" -L obs --output-on-failure -j "$JOBS"
}

run_asan() {
  require python3 "needed by tools/serve_kill_recover.py"
  # UBSan recovers and keeps going by default; make every finding fatal.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
  # The readers' fault-injection corpus and argv mutants, their Liberty
  # and Verilog round trips (property_test) and lenient directive paths
  # (dataflow_test), the JSON Writer and every golden artifact rendered
  # through it, the gapd server suite, the STA oracle suite, the placer's
  # CSR tables against their pointer-walk reference, and the CLIs' own argv
  # paths.
  local suites="fault_injection_test io_test diagnostics_test obs_test
    common_test golden_test serve_test soa_graph_test driver_test lint_test
    qor_test dataflow_test property_test place_test"
  echo "== ASan/UBSan build ($BUILD_ASAN) =="
  cmake -B "$BUILD_ASAN" -S . -DGAP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  # shellcheck disable=SC2086  # word splitting of $suites is intended
  cmake --build "$BUILD_ASAN" -j "$JOBS" --target $suites gapd

  for suite in $suites; do
    echo "== $suite under ASan/UBSan =="
    "$BUILD_ASAN/tests/$suite"
  done

  echo "== gapd SIGKILL mid-burst + journal recovery under ASan/UBSan =="
  python3 tools/serve_kill_recover.py "$BUILD_ASAN/gapd"
}

# The bench gate: quick-mode microbenchmarks in a Release tree, compared
# strictly against the committed baseline, plus the parallel-scaling
# bench, whose bit-identity check exits non-zero on any thread-count
# dependence. A >15% regression on any benchmark exits non-zero. After an
# intentional perf change, refresh the baseline (docs/benchmarks.md):
#
#   python3 tools/bench_compare.py build-bench/BENCH_local.json \
#     --baseline BENCH_baseline.json --write-baseline
run_bench() {
  require python3 "needed by tools/bench_compare.py"
  echo "== bench gate build ($BUILD_BENCH) =="
  cmake -B "$BUILD_BENCH" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_BENCH" -j "$JOBS" \
    --target bench_perf_tools bench_parallel_scaling

  echo "== bench_perf_tools (quick mode) =="
  GAP_BENCH_QUICK=1 "$BUILD_BENCH/bench/bench_perf_tools" \
    --benchmark_format=json \
    --benchmark_out="$BUILD_BENCH/BENCH_local.json" \
    --benchmark_out_format=json

  echo "== bench_parallel_scaling (quick mode, determinism check) =="
  GAP_BENCH_QUICK=1 "$BUILD_BENCH/bench/bench_parallel_scaling"

  echo "== strict compare vs BENCH_baseline.json =="
  python3 tools/bench_compare.py "$BUILD_BENCH/BENCH_local.json" \
    --baseline BENCH_baseline.json --threshold 0.15 --strict
}

case "$MODE" in
  tsan) timed tsan run_tsan ;;
  asan) timed asan run_asan ;;
  bench) timed bench run_bench ;;
  sanitizers)
    timed tsan run_tsan
    timed asan run_asan
    ;;
  all)
    timed tsan run_tsan
    timed asan run_asan
    run_full() {
      echo "== regular build + full test suite =="
      cmake -B build -S .
      cmake --build build -j "$JOBS"
      ctest --test-dir build --output-on-failure -j "$JOBS"
    }
    timed full run_full
    ;;
esac

echo "check.sh: OK"
