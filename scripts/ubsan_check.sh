#!/usr/bin/env bash
# Build and run the hostile-input and arithmetic-heavy tests under
# UndefinedBehaviorSanitizer.
#
# The loaders parse length prefixes and tensor headers from files a crash or
# an attacker may have corrupted, the Alg. 2 driver's checkpoint/resume path
# restores them, and the register-tiled GEMM indexes edge tiles by hand.
# Signed overflow in a size computation, a misaligned or out-of-range cast,
# or a bad shift there is undefined behaviour long before it is a crash.
# This script configures a dedicated build tree with -DDUO_SANITIZE=undefined
# and runs the serialization, SparseQuery, failure-mode, crash-recovery, and
# GEMM suites under UBSan.
#
# Usage: scripts/ubsan_check.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ubsan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_serialization test_sparse_query test_failure_modes \
  test_crash_recovery test_gemm

# UBSan recovers and keeps going by default; halt_on_error turns the first
# report into a test failure so CI stays loud.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
ctest --test-dir "$build_dir" \
  -R 'Serialization|SparseQuery|FailureModes|CrashRecovery|Gemm' \
  --output-on-failure --timeout 1800 -j "$(nproc)"
