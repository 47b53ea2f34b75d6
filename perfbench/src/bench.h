// Shared declarations of the benchmark's workloads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_solver.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "service/query_service.h"
#include "ruler.h"
#include "speed.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dir;  // where the traced run writes its spans
};

// Monte-Carlo rounds of every EVAL and EvaluateSpread the workloads make,
// so eval_ms.p50 and cascade.eval_ms time the same work.
constexpr uint32_t kEvalRounds = 10000;

// Everything one run reports. Metrics are printed in insertion order.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  // A failed request or wrong answer (already counted as attempted): counts
  // as failed and fails the run.
  void Fail(const std::string& why);
  // Folds a latency log's attempts and failures into the run totals.
  void Count(const LatencyLog& log) {
    attempted += log.attempted();
    failed += log.failed();
    if (log.failed() > 0) correct = false;
  }
};

// A query and the blockers it was answered with.
struct Answer {
  vblock::IminQuery query;
  std::vector<vblock::VertexId> blockers;
};

// blocked_spread: one ruler estimate per answer (fixed rounds, a fixed
// seed per answer index), averaged.
SpreadEstimate BlockedSpread(const vblock::Graph& g,
                             const std::vector<Answer>& answers);

// Adds the end-to-end metrics of an untraced run, in BENCHMARK.json's
// order: the median set-up, SOLVE percentiles and rate over the window
// (`solved` completed SOLVEs in `seconds`), the EVAL and UPDATE medians,
// the blocked spread and the peak RSS. Timings are divided, and the rate
// multiplied, by the probe's slowdown: they read at the reference speed.
void ReportEndToEnd(const std::vector<double>& setup_s, const LatencyLog& solve,
                    uint64_t solved, double seconds, const LatencyLog& eval,
                    const LatencyLog& update, const SpreadEstimate& blocked,
                    const SpeedProbe& probe, Report* report);

// A traced run alternates untraced and traced slices of the window, so both
// see the same conditions; obs.trace_overhead compares their medians. An
// untraced run has no traced slices.
constexpr double kSliceSeconds = 0.5;
inline bool TracedSlice(bool trace, int64_t start_ns, int64_t now_ns) {
  return trace &&
         (now_ns - start_ns) / static_cast<int64_t>(kSliceSeconds * 1e9) % 2 == 1;
}

// The per-layer metrics of BENCHMARK.json, in its order, with units. A
// traced run reports every one of them; 0 where a workload never makes the
// call (see README.md for which apply where).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

using LayerValues = std::map<std::string, double>;

struct ReplayInput {
  const vblock::Graph* graph = nullptr;  // graph the queries were answered on
  uint64_t epoch = 0;                    // its registry epoch (served only)
  vblock::QueryService* service = nullptr;  // null for the library workload
  vblock::SolverOptions defaults;        // knobs a query does not override
  std::vector<vblock::IminQuery> queries;  // distinct queries of the window
  const vblock::Graph* update_base = nullptr;  // graph the deltas apply to
  std::vector<vblock::GraphDelta> deltas;
};

// Calls each layer's public functions on the window's queries with a span
// around every call, and derives the per-layer timings from those spans.
void ReplayLayers(const ReplayInput& in, SpanLog* log, LayerValues* out);

// Peak resident set of this process, which hosts the program under test.
double PeakRssMb();

void RunSolveCold(const Args& args, Report* report, LayerValues* layers,
                  SpanLog* log);
void RunServeWarm(const Args& args, Report* report, LayerValues* layers,
                  SpanLog* log);
void RunServeChurn(const Args& args, Report* report, LayerValues* layers,
                   SpanLog* log);

// "key=value" field of a protocol response, if present.
std::optional<std::string> Field(const std::string& line, const std::string& key);

// Blockers of an "OK blockers=..." SOLVE response; nullopt if malformed.
std::optional<std::vector<vblock::VertexId>> ParseBlockers(const std::string& line);

// Structural check of an answer: at most `budget` distinct, in-range,
// non-seed blockers, exactly `expected` of them when `expected` >= 0.
bool ValidAnswer(const std::vector<vblock::VertexId>& blockers,
                 const std::vector<vblock::VertexId>& seeds, uint32_t budget,
                 vblock::VertexId n, int64_t expected);

}  // namespace perfbench
