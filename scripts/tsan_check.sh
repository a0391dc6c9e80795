#!/usr/bin/env bash
# Build and run the concurrency-sensitive tests under ThreadSanitizer.
#
# The thread pool's caller-runs parallel_for and inline scopes, the parallel
# Conv3d / pooling / extraction kernels, and the serve layer's MPMC queue and
# serving lanes (each a thread that drains, extracts, scans, fulfills and
# bills on its own replica, all sharing the queue, the ledger, the
# degradation ladder and the system's weights) are the code most likely to
# regress into a data race; this script configures a dedicated build tree
# with -DDUO_SANITIZE=thread and runs the thread-pool, parallel-determinism,
# GEMM, serve, and pipelined-attack suites under TSan.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_thread_pool test_parallel_determinism test_gemm test_serve \
  test_sparse_query test_failure_modes test_gradcheck test_ivf_index \
  test_retrieval test_campaign test_crash_recovery

# TSan multiplies runtime ~5-15x; give the suites generous slack but keep
# the halt-on-first-race behaviour so CI fails loudly. The regex picks up the
# fault-tolerance suites too: FaultInjection/Resilient (retrying clients on a
# faulty server), Serve.ConcurrentShutdownIsSafe (the shutdown-race
# regression), FailureModes.ServeFaultMatrix* (fault-injected attacks), and
# the overload suites: Admission (rate limiting + reject/shed policies),
# Pacer (shared client-side token bucket), Circuit (breaker state machine).
# scripts/tsan.supp silences the known exception_ptr refcount false positive
# from the uninstrumented libstdc++ (see the file for details).
export TSAN_OPTIONS="suppressions=$repo_root/scripts/tsan.supp ${TSAN_OPTIONS:-halt_on_error=1}"
ctest --test-dir "$build_dir" \
  -R 'ThreadPool|ParallelDeterminism|Gemm|Conv3d|Pooling|Extractor|Gallery|Serve|SparseQueryPipelined|FaultInjection|Resilient|Admission|Pacer|Aimd|Circuit|CheckGrad|Ivf|RetrievalIndex|Campaign|CrashRecovery' \
  --output-on-failure --timeout 1800

# A server runs one lane per compute-pool thread, so the pass above serves
# with as many lanes as the host has cores. Eight lanes on fewer cores
# interleave the lanes' drains, ladder ticks, weight refreshes and crash
# checks differently; run the serve-side suites once more that way.
DUO_THREADS=8 ctest --test-dir "$build_dir" \
  -R 'Serve|Admission|Circuit|CrashRecovery' \
  --output-on-failure --timeout 1800

# The soak manifests drive the admission controller, rate limiter, AIMD
# pacer feedback, expiry shedding, per-client accounting, checkpointing
# sessions, and the chaos thread's crash/snapshot/restart against every
# serving surface from concurrent client threads — the exact surfaces a
# race would corrupt — so campaign_soak's smoke pass runs under TSan too.
cmake --build "$build_dir" -j "$(nproc)" --target campaign_soak
DUO_THREADS=8 "$build_dir/bench/campaign_soak" --smoke
