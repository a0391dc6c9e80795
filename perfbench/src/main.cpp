// Benchmark driver: builds the shared world, runs one workload, checks its
// correctness gates and prints one JSON result as the last stdout line.
//
//   perfbench --workload attack_query|serve_open|transfer --seed N
//             --seconds S --trace 0|1 [--trace-out spans.csv]
//   perfbench --sweep
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced for S/2 each, adds the per-layer metrics and the
// tracing overhead, and writes the spans to --trace-out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

using WorkloadFn = void (*)(const RunContext&, Report&);

const std::map<std::string, WorkloadFn> kWorkloads = {
    {"attack_query", run_attack_query},
    {"serve_open", run_serve_open},
    {"transfer", run_transfer},
};

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload attack_query|serve_open|transfer "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --sweep\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, sweep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (sweep) return run_serve_sweep();
  const auto it = kWorkloads.find(workload);
  if (it == kWorkloads.end() || !(seconds > 0.0)) return usage();
  const WorkloadFn run = it->second;

  // Shared world, built five times: setup_s is the median. The first copy
  // is the one the workload drives, the second its untraced reference twin,
  // the third the traced copy (traced run only); the rest are only timed.
  Tracer tracer;
  std::vector<World> worlds;
  std::vector<double> setup_s;
  HostSamples host;
  host.take();
  const std::size_t keep = trace ? 3 : 2;
  for (std::size_t i = 0; i < 5; ++i) {
    const double t0 = now_s();
    World w = build_world(seed, trace && i == 2 ? &tracer : nullptr);
    setup_s.push_back(now_s() - t0);
    if (i < keep) worlds.push_back(std::move(w));
    host.take();
  }
  tracer.clear();

  Report report;
  RunContext ctx{seed, seconds, &worlds[0], &worlds[1], nullptr};
  std::vector<Metric> out;
  if (!trace) {
    run(ctx, report);
    out.push_back({"setup_s", median(setup_s) / host.median_factor(), "s"});
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    out.insert(out.end(), report.e2e.begin(), report.e2e.end());
  } else {
    Report untraced;
    ctx.seconds = seconds / 2.0;
    run(ctx, untraced);
    RunContext tctx = ctx;
    tctx.served = &worlds[2];
    tctx.tracer = &tracer;
    run(tctx, report);
    for (const auto& g : untraced.gate_failures) report.gate(false, g);
    const double overhead = (metric(untraced.e2e, "rate_per_s") /
                                 metric(report.e2e, "rate_per_s") -
                             1.0) *
                            100.0;
    if (workload != "serve_open") {
      probe_serve_layer(tctx, report, workload == "transfer");
    }
    if (workload != "attack_query") probe_query_layer(tctx, report);
    if (workload != "transfer") probe_transfer_layer(tctx, report);
    probe_kernels(tctx, report);
    report.add_layer("trace.overhead_pct", overhead, "%");
    out = report.layer;
    if (!trace_out.empty() && !tracer.write_csv(trace_out)) {
      std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
    }
  }

  for (const auto& l : report.lines) std::printf("%s\n", l.c_str());
  for (const auto& g : report.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", g.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  print_metrics(out);
  std::printf("}\n");
  return report.correct ? 0 : 1;
}
