#include <sys/resource.h>

#include <cstdio>
#include <unordered_set>

#include "bench.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  ++failed;
  std::printf("FAIL %s\n", why.c_str());
}

void ReportEndToEnd(const std::vector<double>& setup_s, const LatencyLog& solve,
                    uint64_t solved, double seconds, const LatencyLog& eval,
                    const LatencyLog& update, const SpreadEstimate& blocked,
                    const SpeedProbe& probe, Report* report) {
  const double slowdown = probe.Slowdown();
  const double rate = static_cast<double>(solved) / seconds;
  std::printf(
      "host probe: median %.4f ms over %zu runs, slowdown %.4f against the "
      "reference; unscaled: setup_s %.4f, solve_ms.p50 %.4f, solves_per_s "
      "%.4f\n",
      probe.MedianMs(), probe.runs(), slowdown, Median(setup_s),
      solve.Percentile(50), rate);
  report->Metric("setup_s", Median(setup_s) / slowdown, "s");
  report->Metric("solve_ms.p50", solve.Percentile(50) / slowdown, "ms");
  report->Metric("solve_ms.p90", solve.Percentile(90) / slowdown, "ms");
  report->Metric("solves_per_s", rate * slowdown, "1/s");
  report->Metric("eval_ms.p50", eval.Percentile(50) / slowdown, "ms");
  report->Metric("update_ms.p50", update.Percentile(50) / slowdown, "ms");
  report->Metric("blocked_spread", blocked.mean, "vertices");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"gen.dataset_ms", "ms"},
      {"graph.grouped_view_ms", "ms"},
      {"graph.apply_ms", "ms"},
      {"sampling.sample_us", "us"},
      {"sampling.region_vertices", "count"},
      {"domtree.lt_us", "us"},
      {"core.unify_ms", "ms"},
      {"core.build_ms", "ms"},
      {"core.build_calls", "count"},
      {"core.block_ms", "ms"},
      {"core.unblock_ms", "ms"},
      {"core.ag_ms", "ms"},
      {"core.gr_ms", "ms"},
      {"core.restore_ms", "ms"},
      {"core.migrate_ms", "ms"},
      {"core.migrated_samples", "count"},
      {"core.entry_bytes", "bytes"},
      {"cascade.eval_ms", "ms"},
      {"service.request_ms", "ms"},
      {"service.outside_solver_ms", "ms"},
      {"service.pool_hit_ratio", "ratio"},
      {"service.evictions", "count"},
      {"service.bytes_per_entry", "bytes"},
      {"service.coalesced", "count"},
      {"service.rejected", "count"},
      {"service.migrated", "count"},
      {"service.dropped", "count"},
      {"net.wire_ms", "ms"},
      {"net.bytes_per_request", "bytes"},
      {"obs.trace_overhead", "ratio"},
      {"obs.writer_late_ms", "ms"},
      {"obs.probe_ms", "ms"},
  };
  return kUnits;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::optional<std::string> Field(const std::string& line,
                                 const std::string& key) {
  const std::string needle = key + "=";
  size_t at = 0;
  while ((at = line.find(needle, at)) != std::string::npos) {
    if (at == 0 || line[at - 1] == ' ') {
      const size_t begin = at + needle.size();
      const size_t end = line.find(' ', begin);
      return line.substr(begin, end == std::string::npos ? end : end - begin);
    }
    at += needle.size();
  }
  return std::nullopt;
}

std::optional<std::vector<vblock::VertexId>> ParseBlockers(
    const std::string& line) {
  if (line.rfind("OK ", 0) != 0) return std::nullopt;
  std::optional<std::string> list = Field(line, "blockers");
  if (!list) return std::nullopt;
  std::vector<vblock::VertexId> out;
  if (list->empty() || *list == "-") return out;
  size_t begin = 0;
  while (begin <= list->size()) {
    const size_t end = std::min(list->find(',', begin), list->size());
    try {
      out.push_back(static_cast<vblock::VertexId>(
          std::stoul(list->substr(begin, end - begin))));
    } catch (...) {
      return std::nullopt;
    }
    begin = end + 1;
  }
  return out;
}

bool ValidAnswer(const std::vector<vblock::VertexId>& blockers,
                 const std::vector<vblock::VertexId>& seeds, uint32_t budget,
                 vblock::VertexId n, int64_t expected) {
  if (blockers.size() > budget) return false;
  if (expected >= 0 && blockers.size() != static_cast<size_t>(expected)) {
    return false;
  }
  std::unordered_set<vblock::VertexId> seen;
  const std::unordered_set<vblock::VertexId> seed_set(seeds.begin(), seeds.end());
  for (vblock::VertexId b : blockers) {
    if (b >= n || seed_set.count(b) || !seen.insert(b).second) return false;
  }
  return true;
}

}  // namespace perfbench
