#!/usr/bin/env bash
# Tier-1 verify from a clean checkout: configure, build, run the full test
# suite, then re-run the bitwise-determinism suite with the compute pool
# forced to 8 workers (DUO_THREADS oversubscribes harmlessly on small
# machines; the determinism tests additionally pin their own pools, so this
# exercises both the env-sized shared pool and the pinned ones).
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
  -R 'ParallelDeterminism|Gemm|Serve|SparseQuery|FaultInjection|Resilient|Admission|Pacer|Aimd|Circuit|NeighborOrder|Ivf|Campaign|CrashRecovery' \
  --output-on-failure

# Kernel-equivalence re-run under the reference Conv3d kernel: the gradient
# harness, NaN regressions, and direct-vs-GEMM suites must pass identically
# when every kAuto conv resolves to the direct loops instead of im2col/GEMM.
DUO_CONV3D_KERNEL=direct ctest --test-dir "$build_dir" \
  -R 'CheckGrad|NanSanity|Conv3dKernels' --output-on-failure

# Direct-vs-GEMM consistency smoke: both Conv3d kernels on identical
# weights/inputs; forward and parameter gradients must match bitwise.
"$build_dir/bench/micro_ops" --smoke

# Serve-layer smoke: exercises the micro-batching scheduler end to end under
# concurrent clients and prints the batch-size histogram + latency
# percentiles (seconds-long at --smoke scale).
DUO_THREADS=8 "$build_dir/bench/serve_throughput" --smoke

# Fault-tolerance smoke: resilient clients against a 10% mixed-fault victim;
# fails if any answer diverges from the fault-free retrieval or the billing
# undercounts (seconds-long at --smoke scale).
DUO_THREADS=8 "$build_dir/bench/fault_soak" --smoke

# Overload smoke: paced clients against a throttling, load-shedding,
# deadline-enforcing, fault-injecting victim; fails on any mismatched answer
# or if the billing ledger stops reconciling (billed == served + faulted +
# expired + shed). --aimd additionally runs the adaptive pacer against a
# fresh identical server and fails if it bills more than the static one.
DUO_THREADS=8 "$build_dir/bench/overload_soak" --smoke --aimd

# Gallery-scale smoke: flat exact scan vs sharded IVF + quantized re-rank;
# fails if nprobe=all-cells diverges from the exact index or IVF results
# differ across shard counts (the determinism/identity contracts).
DUO_THREADS=8 "$build_dir/bench/gallery_scale" --smoke

# Campaign smoke: concurrent attack sessions + benign streams against one
# victim, killed mid-run and resumed; fails if the resumed campaign's
# per-session outcomes diverge bitwise from the uninterrupted reference or
# any run's billing ledger stops reconciling (globally or per client).
DUO_THREADS=8 "$build_dir/bench/campaign_soak" --smoke

# Crash smoke: the same multi-tenant campaign with the victim abruptly
# crashing and restarting mid-run (accounting snapshot + gallery index
# round-tripped through durable files); fails if any per-session outcome
# diverges bitwise from the crash-free reference, the ledger stops
# reconciling across the restarts, or the durable files go missing.
DUO_THREADS=8 "$build_dir/bench/crash_soak" --smoke
