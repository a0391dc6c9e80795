#!/usr/bin/env bash
# Build and run the hostile-input and arithmetic-heavy tests under
# UndefinedBehaviorSanitizer.
#
# The loaders parse length prefixes, tensor headers and video headers from
# files a crash or an attacker may have corrupted, the Alg. 2 driver's
# checkpoint/resume path restores them, the register-tiled GEMM indexes edge
# tiles by hand, im2col addresses its zero-padded channel copies by hand,
# and MaxPool3d indexes its taps through an offset table.
# Signed overflow in a size computation, a misaligned or out-of-range cast,
# or a bad shift there is undefined behaviour long before it is a crash.
# Every serve and campaign suite runs through the billing ledger, whose
# counters, histograms and reservoir draws every serving lane updates by
# hand, and the lanes size their share of the queue arithmetically.
# This script configures a dedicated build tree with -DDUO_SANITIZE=undefined
# and runs the serialization, SparseQuery, failure-mode, crash-recovery,
# GEMM, Conv3d, InstanceNorm/MaxPool/flat-scan oracle, parallel-determinism,
# thread-pool, serve, admission, circuit, campaign, fairness and codec suites
# under UBSan.
#
# Usage: scripts/ubsan_check.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ubsan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_serialization test_sparse_query test_failure_modes \
  test_crash_recovery test_gemm test_gradcheck test_parallel_determinism \
  test_serve test_campaign test_nn_layers test_video test_oracles \
  test_thread_pool

# UBSan recovers and keeps going by default; halt_on_error turns the first
# report into a test failure so CI stays loud.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
ctest --test-dir "$build_dir" \
  -R 'Serialization|SparseQuery|FailureModes|CrashRecovery|Gemm|Conv3d|Oracle|ParallelDeterminism|ThreadPool|Serve|Admission|Circuit|Campaign|Fairness|Codec' \
  --output-on-failure --timeout 1800 -j "$(nproc)"
