// vblock end-to-end benchmark.
//
//   vblock_perfbench --workload solve-cold|serve-warm|serve-churn
//                    --seed N --seconds S --trace 0|1 [--span-dir DIR]
//
// Prints human-readable notes, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: vblock_perfbench --workload "
               "solve-cold|serve-warm|serve-churn --seed N --seconds S "
               "--trace 0|1 [--span-dir DIR]\n",
               why);
  return 2;
}

void PrintResult(const perfbench::Report& report) {
  bool correct = report.correct && report.attempted > 0;
  std::string metrics;
  for (const auto& [name, vu] : report.metrics) {
    double value = vu.first;
    if (!std::isfinite(value)) {
      // A percentile that lands on a failed request: the run is not correct.
      correct = false;
      value = 0;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  vu.second.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(args.seconds > 0) || args.seconds > 120) {
        return Usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--span-dir") {
      args.span_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  perfbench::Report report;
  perfbench::LayerValues layers;
  perfbench::SpanLog log(args.trace);
  try {
    if (args.workload == "solve-cold") {
      perfbench::RunSolveCold(args, &report, &layers, &log);
    } else if (args.workload == "serve-warm") {
      perfbench::RunServeWarm(args, &report, &layers, &log);
    } else if (args.workload == "serve-churn") {
      perfbench::RunServeChurn(args, &report, &layers, &log);
    } else {
      return Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    report.metrics.clear();
    for (const auto& [name, unit] : perfbench::LayerMetricUnits()) {
      const auto it = layers.find(name);
      report.Metric(name, it == layers.end() ? 0 : it->second, unit);
    }
    if (!args.span_dir.empty()) {
      const std::string path = args.span_dir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      if (log.WriteJson(path)) {
        std::printf("spans: %zu written to %s\n", log.spans().size(), path.c_str());
      } else {
        std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      }
    }
  }
  PrintResult(report);
  return 0;
}
