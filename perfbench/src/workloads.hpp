#pragma once

// The three workloads and the per-layer probes of the traced run.

#include <cstdint>

#include "bench.hpp"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  World* served = nullptr;     // world the workload drives (traced or not)
  World* reference = nullptr;  // untraced twin for reference answers
  Tracer* tracer = nullptr;    // null in the untraced run
};

// Each workload fills report.e2e with rate_per_s (its own definition, see
// README.md), prints its named metrics into
// report.lines, checks its correctness gates, and — when ctx.tracer is set —
// adds the per-layer metrics of the layers it exercises.
void run_attack_query(const RunContext& ctx, Report& report);
void run_serve_open(const RunContext& ctx, Report& report);
void run_transfer(const RunContext& ctx, Report& report);

// Layers a workload does not exercise are measured by a short standalone
// run of that layer after the workload, so every traced run reports every
// per-layer metric. `ctx.served` must be the traced world.
void probe_serve_layer(const RunContext& ctx, Report& report, bool all);
void probe_query_layer(const RunContext& ctx, Report& report);
void probe_transfer_layer(const RunContext& ctx, Report& report);

// Fixed-shape probes of nn, models, retrieval, attack::lp_box_admm and
// video (probes.cpp).
void probe_kernels(const RunContext& ctx, Report& report);

// Closed-loop clients x max_batch sweep with the victim traced; explains
// serve-throughput swings (README.md, "Serve puzzles").
int run_serve_sweep();

}  // namespace perfbench
