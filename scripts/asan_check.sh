#!/usr/bin/env bash
# Build and run the lifetime-sensitive tests under AddressSanitizer.
#
# Crash/restart recovery is where a lifetime bug would live: crash() fails
# queued and in-flight requests while client threads still hold their
# futures, restart() tears the accounting down and rebuilds it from a
# snapshot, the chaos path swaps the live gallery index for one reloaded
# from disk, and reconnecting clients replay pipelined requests against the
# new epoch. The register-tiled GEMM's zero-padded edge tiles are the other
# place an out-of-bounds store would hide, and the Alg. 2 driver's deferred
# and pipelined candidates are the attack-side lifetimes. This script
# configures a dedicated build tree with -DDUO_SANITIZE=address and runs the
# GEMM, serve, SparseQuery, failure-mode, serialization, campaign, and
# crash-recovery suites plus the crash soak under ASan.
#
# Usage: scripts/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" -DDUO_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_gemm test_serve test_sparse_query test_failure_modes \
  test_serialization test_campaign test_crash_recovery

# ASan multiplies runtime ~2-3x and memory ~3x; the suites here are the ones
# that exercise edge-tile stores, crash/restart, snapshot restore, index
# reload, and client reconnect lifetimes. halt_on_error keeps CI loud on the
# first report.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
ctest --test-dir "$build_dir" \
  -R 'Gemm|Serve|SparseQuery|FailureModes|Serialization|Campaign|CrashRecovery' \
  --output-on-failure --timeout 1800

# The crash soak drives the whole surface end to end: a multi-tenant
# campaign whose victim crashes and restarts mid-run from durable files,
# with every client reconnecting and replaying. Use-after-free on any of
# those paths surfaces here.
cmake --build "$build_dir" -j "$(nproc)" --target crash_soak
DUO_THREADS=8 "$build_dir/bench/crash_soak" --smoke
