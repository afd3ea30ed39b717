#!/usr/bin/env bash
# One-command CI gate: release build, tier-1 tests, kernel tests at the
# thread-count extremes, TSan over the binaries CI's TSan step runs, bench
# smoke, a loaded run of the batching inference server, static verification
# of every registered multiplier, and (when the tools are available)
# clang-format + clang-tidy.
#
#   scripts/check.sh            # all stages, interactive output
#   scripts/check.sh --ci       # GitHub Actions mode: ::group:: stage
#                               # folding, ::error:: annotations, no colors
#   scripts/check.sh --no-lint  # skip the clang-tidy pass even if available
#
# Build parallelism: CMAKE_BUILD_PARALLEL_LEVEL when set, else nproc.
# Exits nonzero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."

ci_mode=0
run_lint=1
for arg in "$@"; do
  case "$arg" in
    --ci) ci_mode=1 ;;
    --no-lint) run_lint=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

jobs=${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}

current_stage=""

begin_stage() {
  current_stage="$1"
  if [ "$ci_mode" -eq 1 ]; then
    echo "::group::$current_stage"
  else
    echo "=== $current_stage ==="
  fi
}

end_stage() {
  if [ "$ci_mode" -eq 1 ]; then
    echo "::endgroup::"
  fi
}

on_error() {
  if [ "$ci_mode" -eq 1 ]; then
    echo "::endgroup::"
    echo "::error::stage failed: ${current_stage:-startup}"
  else
    echo "stage failed: ${current_stage:-startup}" >&2
  fi
}
trap on_error ERR

begin_stage "configure + build (release)"
cmake --preset release
cmake --build --preset release -j "$jobs"
end_stage

# New-code formatting contract (.clang-format). Scoped to the files written
# against it; the older tree predates the config and is left untouched.
if command -v clang-format >/dev/null 2>&1; then
  begin_stage "clang-format (src/obs, trace_report, test_obs)"
  clang-format --dry-run --Werror \
    src/obs/*.hpp src/obs/*.cpp tools/trace_report.cpp tests/test_obs.cpp
  end_stage
else
  echo "clang-format not available; format stage omitted"
fi

begin_stage "tier-1 tests"
ctest --preset release -j "$jobs"
end_stage

begin_stage "kernel property tests at the thread-count extremes"
AMRET_THREADS=1 ./build/tests/test_kernels
AMRET_THREADS=8 ./build/tests/test_kernels
AMRET_THREADS=1 ./build/tests/test_layout
AMRET_THREADS=8 ./build/tests/test_layout
AMRET_THREADS=1 ./build/tests/test_simd
AMRET_THREADS=8 ./build/tests/test_simd
AMRET_THREADS=1 ./build/tests/test_gemm
AMRET_THREADS=8 ./build/tests/test_gemm
end_stage

# Re-run the SIMD bitwise-equivalence suite with dispatch capped at each ISA
# level this machine supports, probed through `amret_cli simd-info --check`
# (exit 0 = supported). Unsupported legs are skipped rather than silently
# exercising the scalar fallback.
begin_stage "SIMD bitwise equivalence at every supported dispatch cap"
for isa in scalar ssse3 avx2 avx512; do
  if ./build/tools/amret_cli simd-info --check "$isa"; then
    AMRET_SIMD="$isa" ./build/tests/test_simd
    AMRET_SIMD="$isa" ./build/tests/test_gemm
    AMRET_SIMD="$isa" ./build/tests/test_kernels
    AMRET_SIMD="$isa" ./build/tests/test_approx
    AMRET_SIMD="$isa" ./build/tests/test_inference
  else
    echo "this machine lacks $isa; skipping AMRET_SIMD=$isa leg"
  fi
done
end_stage

# The twelve binaries of CI's TSan step (.github/workflows/ci.yml); the
# parallel trainer runs its determinism tests only.
begin_stage "the twelve CI TSan binaries under ThreadSanitizer"
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" \
  --target test_train_parallel test_runtime_determinism test_obs test_serve \
  test_depthwise test_layout test_simd test_assignment test_gemm test_kernels \
  test_approx test_inference
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/test_train_parallel --gtest_filter='TrainerDeterminism.*'
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_runtime_determinism
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_obs
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_serve
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_depthwise
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_layout
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_simd
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_assignment
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_gemm
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_kernels
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_approx
AMRET_THREADS=8 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_inference
end_stage

begin_stage "bench_micro smoke (--quick; fails on crash only)"
set +e
./build/bench/bench_micro --quick > /dev/null
bench_status=$?
set -e
if [ "$bench_status" -ge 128 ]; then
  echo "bench_micro --quick crashed (exit $bench_status)" >&2
  false
fi
end_stage

# Kernel throughput with bitwise-equality gating against the naive oracle
# (tests/lut_oracle.hpp): a kernel regression that changes results fails
# here; perf numbers only report (machine-dependent). Artifact:
# results/BENCH_kernels.json.
begin_stage "kernel throughput report (bench_micro --kernels-json)"
./build/bench/bench_micro --kernels-json
end_stage

begin_stage "traced training round-trip"
./build/tools/amret_cli train --epochs 1 --trace build/train_trace.json \
  > /dev/null
./build/tools/trace_report build/train_trace.json --top 5 > /dev/null
end_stage

# Exits nonzero on a reject storm or when nothing is served, so a batching
# or admission regression fails the gate, not just the latency numbers.
begin_stage "serve smoke (batching inference server under load)"
./build/tools/amret_cli serve --duration 2 --train-epochs 1 --clients 8 \
  --max-reject-rate 0.5
end_stage

begin_stage "static verification of the multiplier registry"
./build/tools/amret_cli check
end_stage

# Proves accumulator/rescale/LUT-index bounds for the deployable integer
# graphs; exits nonzero when any config is unprovable. Certificates land in
# results/ (uploaded as CI artifacts by bench-smoke).
begin_stage "static overflow certificates (analyze-static)"
mkdir -p results
./build/tools/amret_cli analyze-static --models lenet,vgg11 --out-dir results
end_stage

# Tiny 2-layer x 3-multiplier sensitivity sweep: the mixed-precision DSE
# must produce a Pareto front where a mixed assignment dominates the best
# uniform, the emitted assignment must train and prove safe, and a second
# run must resume entirely from the content-addressed cache.
begin_stage "mixed-precision exploration smoke (explore + resume-from-cache)"
rm -rf build/dse_cache
./build/tools/amret_cli explore --train-samples 256 --test-samples 96 \
  --baseline-epochs 2 --retrain-epochs 1 --cache-dir build/dse_cache \
  --out-dir results --emit-best results/best_assignment.json \
  --require-mixed-dominates
resume_line=$(./build/tools/amret_cli explore --train-samples 256 \
  --test-samples 96 --baseline-epochs 2 --retrain-epochs 1 \
  --cache-dir build/dse_cache --out-dir results --require-mixed-dominates \
  | grep "from cache")
echo "$resume_line"
case "$resume_line" in
  *" 0 retrained"*) ;;
  *) echo "explore did not resume from the result cache" >&2; false ;;
esac
./build/tools/amret_cli train --assignment results/best_assignment.json \
  --epochs 1 > /dev/null
./build/tools/amret_cli analyze-static --models lenet \
  --assignment results/best_assignment.json --out-dir results
end_stage

if [ "$run_lint" -eq 1 ]; then
  begin_stage "lint gate (invariants + clang-tidy when available)"
  scripts/lint.sh
  end_stage
else
  begin_stage "lint gate (invariants only; --no-lint)"
  scripts/lint.sh --invariants-only
  end_stage
fi

echo "all checks passed"
