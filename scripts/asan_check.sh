#!/usr/bin/env bash
# Build and run the lifetime-sensitive tests under AddressSanitizer.
#
# Crash/restart recovery is where a lifetime bug would live: crash() fails
# queued and in-flight requests while client threads still hold their
# futures, restart() tears the accounting down and rebuilds it from a
# snapshot, the chaos path swaps the live gallery index for one reloaded
# from disk, and reconnecting clients replay pipelined requests against the
# new epoch. The register-tiled GEMM's zero-padded edge tiles are the other
# place an out-of-bounds store would hide, as are im2col's zero-padded
# channel copies (the Conv3d suites sweep odd kernel, stride and
# padding shapes through them) and extract_batch's kept replicas. The Alg. 2
# driver's deferred and pipelined candidates are the attack-side lifetimes.
# Serving lanes hold their own replicas and inline scopes for the server's
# lifetime and are joined on shutdown, crash and restart, so the admission
# and circuit suites that stop servers under load, and the thread-pool
# suite, run here too.
# The video codec sizes its pixel buffer from a file header, so its
# hostile-header cases and seeded header/bit-flip/truncation mutants are
# where an over-allocation would show. MaxPool3d's vector lanes read four
# windows at once and index taps through an offset table, so the oracle
# suites' odd pool geometries are where a read past a channel would show.
# This script configures a dedicated build tree with -DDUO_SANITIZE=address
# and runs the GEMM, Conv3d, InstanceNorm/MaxPool/flat-scan oracle,
# parallel-determinism, thread-pool, serve, admission, circuit, SparseQuery,
# failure-mode, serialization, campaign, crash-recovery and codec suites plus
# campaign_soak's smoke pass under ASan.
#
# Usage: scripts/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_gemm test_serve test_sparse_query test_failure_modes \
  test_serialization test_campaign test_crash_recovery test_gradcheck \
  test_parallel_determinism test_nn_layers test_video test_oracles \
  test_thread_pool

# ASan multiplies runtime ~2-3x and memory ~3x; the suites here are the ones
# that exercise edge-tile stores, im2col's padded copies, crash/restart,
# snapshot restore, index reload, and client reconnect lifetimes.
# halt_on_error keeps CI loud on the first report.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
ctest --test-dir "$build_dir" \
  -R 'Gemm|Serve|Admission|Circuit|ThreadPool|SparseQuery|FailureModes|Serialization|Campaign|CrashRecovery|Conv3d|Oracle|ParallelDeterminism|Codec' \
  --output-on-failure --timeout 1800

# campaign_soak drives the whole surface end to end: its crash manifest is
# a multi-tenant campaign whose victim crashes and restarts mid-run from
# durable files, with every client reconnecting and replaying, and its
# campaign manifest resumes killed sessions from checkpoints. Use-after-free
# on any of those paths surfaces here.
cmake --build "$build_dir" -j "$(nproc)" --target campaign_soak
DUO_THREADS=8 "$build_dir/bench/campaign_soak" --smoke
