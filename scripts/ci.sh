#!/usr/bin/env bash
# Tier-1 verify from a clean checkout: configure, build, run the full test
# suite, then re-run the bitwise-determinism suite, the kernel oracles, the
# thread pool and the serve suites with the compute pool forced to 8 workers
# (DUO_THREADS oversubscribes harmlessly on small machines; the determinism
# tests additionally pin their own pools, so this exercises both the
# env-sized shared pool and the pinned ones, and every server runs 8 lanes).
#
# The build tree is untracked (see .gitignore), so this script also proves
# the repo builds without any checked-in CMake state.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

DUO_THREADS=8 ctest --test-dir "$build_dir" \
  -R 'ThreadPool|ParallelDeterminism|Conv3d|Oracle|Gemm|Serve|SparseQuery|FaultInjection|Resilient|Admission|Pacer|Aimd|Circuit|NeighborOrder|Ivf|Campaign|CrashRecovery' \
  --output-on-failure

# Serve-layer smoke: exercises the serving lanes end to end under
# concurrent clients and prints the batch-size histogram + latency
# percentiles (seconds-long at --smoke scale).
DUO_THREADS=8 "$build_dir/bench/serve_throughput" --smoke

# Gallery-scale smoke: flat exact scan vs sharded IVF + quantized re-rank;
# fails if nprobe=all-cells diverges from the exact index or IVF results
# differ across shard counts (the determinism/identity contracts).
DUO_THREADS=8 "$build_dir/bench/gallery_scale" --smoke

# Soak smoke: campaign_soak runs every committed manifest under
# bench/soaks/smoke — resilient clients vs a 10% mixed-fault victim, paced
# clients vs a throttling, shedding, deadline-enforcing victim (AIMD vs a
# static pacer), a campaign killed mid-run and resumed, and a campaign whose
# victim crashes and restarts from durable files. It fails if any completed
# run's per-session outcomes diverge bitwise from the healthy victim's, any
# billing ledger stops reconciling (globally or per client), or a manifest's
# own checks (kill, crash cycles, AIMD billing) do not hold.
DUO_THREADS=8 "$build_dir/bench/campaign_soak" --smoke
