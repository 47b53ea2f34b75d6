// solve-cold: the library alone. One caller thread runs a closed loop of
// distinct one-shot SolveImin queries, so every query pays a full θ-sample
// draw, θ Lengauer–Tarjan passes and the greedy rounds. Nothing is cached,
// restored, queued or sent over a socket: this is where sampling, domtree
// and core compute shows, and where service, cache and network changes
// should not.
//
// Every timing here, the window included, is on the caller thread's CPU
// clock (ThreadCpuNs). The library runs single-threaded by default, so on a
// core of its own that clock equals the wall clock; on a shared host it
// leaves out the time the vCPU was taken away, which otherwise sets the
// run-to-run spread.

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.h"
#include "core/evaluator.h"
#include "gen/dataset_catalog.h"
#include "inputs.h"
#include "prob/probability_models.h"
#include "ruler.h"

namespace perfbench {
namespace {

using vblock::Algorithm;
using vblock::VertexId;

constexpr const char* kDataset = "Wiki-Vote";  // R-MAT family
constexpr double kScale = 0.1;
// The dataset is part of the workload: one fixed stand-in graph. The run
// seed drives everything asked of it.
constexpr uint64_t kGraphSeed = 7;
// Reach band of the seed sets, in vertices: around the median of random
// 5-sets on this graph.
constexpr ReachBand kBand = {36, 46, 8, 12};
// Seed sets generated before the window; a run that answers more reuses
// them from the start.
constexpr size_t kQueryPool = 1200;
constexpr uint32_t kSeedsPerQuery = 5;
constexpr uint32_t kTheta = 1000;
constexpr uint32_t kBudgets[] = {5, 10, 20};
constexpr int kSetups = 31;
constexpr size_t kRepeatPrefix = 4;
constexpr uint64_t kSideEvery = 2;
constexpr size_t kRulerQueries = 200;
constexpr size_t kReplayQueries = 6;
// Wall-clock cap of the window, as a multiple of its CPU-time length, so a
// host that starves the caller cannot hold the run past its time limit.
constexpr double kWallCap = 2.5;
// CPU time between two runs of the host probe in the window.
constexpr double kProbeEvery = 0.25;

// Seeded stream of queries: distinct 5-vertex seed sets from the reach
// band, generated up front; budgets cycle through kBudgets while AG and GR
// alternate.
class QueryStream {
 public:
  QueryStream(uint64_t seed, const vblock::Graph& g) {
    Rng rng(seed);
    const std::vector<VertexId> candidates = SpreadingVertices(g);
    std::set<std::vector<VertexId>> seen;
    while (seed_sets_.size() < kQueryPool) {
      std::vector<VertexId> s =
          DrawBandedSeedSet(rng, g, candidates, kSeedsPerQuery, kBand);
      if (seen.insert(s).second) seed_sets_.push_back(std::move(s));
    }
  }

  vblock::IminQuery Next() {
    vblock::IminQuery q;
    q.seeds = seed_sets_[index_ % seed_sets_.size()];
    q.budget = kBudgets[index_ % 3];
    q.algorithm = index_ % 2 ? Algorithm::kGreedyReplace
                             : Algorithm::kAdvancedGreedy;
    q.theta = kTheta;
    ++index_;
    return q;
  }

 private:
  std::vector<std::vector<VertexId>> seed_sets_;
  uint64_t index_ = 0;
};

vblock::SolverOptions OptionsFor(const vblock::IminQuery& q) {
  vblock::SolverOptions o;
  o.algorithm = q.algorithm;
  o.budget = q.budget;
  o.theta = *q.theta;
  return o;
}

int64_t ExpectedCount(const vblock::Graph& g, const vblock::IminQuery& q) {
  if (q.algorithm == Algorithm::kAdvancedGreedy) return q.budget;
  return std::min<int64_t>(q.budget, NonSeedOutNeighbors(g, q.seeds));
}

}  // namespace

void RunSolveCold(const Args& args, Report* report, LayerValues* layers,
                  SpanLog* log) {
  const vblock::DatasetSpec* spec = vblock::FindDataset(kDataset);

  // Set-up: generate the graph and build its grouped adjacency, kSetups
  // times; the median is setup_s.
  std::vector<double> setup_s;
  vblock::Graph g;
  SpeedProbe probe;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = ThreadCpuNs();
    {
      ScopedSpan span(log, "gen.MakeDataset");
      g = vblock::WithTrivalency(vblock::MakeDataset(*spec, kScale, kGraphSeed),
                                 kGraphSeed);
    }
    {
      ScopedSpan span(log, "graph.GroupedView");
      g.GroupedView();
    }
    setup_s.push_back(static_cast<double>(ThreadCpuNs() - t0) / 1e9);
    probe.Run(ThreadCpuNs);
  }
  std::printf("solve-cold: graph %s scale %.2f seed %llu: n=%u m=%llu\n",
              kDataset, kScale, static_cast<unsigned long long>(kGraphSeed),
              g.NumVertices(), static_cast<unsigned long long>(g.NumEdges()));

  QueryStream stream(SubSeed(args.seed, "queries"), g);
  std::vector<Answer> answers;
  uint64_t request_id = 0;

  // Library updates: successive 0.1% edge deltas from the generator's own
  // copy of the graph, applied to a separate copy.
  EdgeTracker tracker(g);
  Rng delta_rng(SubSeed(args.seed, "deltas"));
  const uint32_t changes =
      std::max<uint32_t>(2, static_cast<uint32_t>(g.NumEdges() / 1000));
  std::vector<vblock::GraphDelta> deltas;
  vblock::Graph current = g;

  // The closed-loop window. After every kSideEvery-th answer the caller also
  // evaluates that answer (eval_ms) and applies the next delta with
  // regrouping (update_ms), so those samples span the whole window too. In
  // a traced run every other slice records spans (and its own latencies,
  // for obs.trace_overhead). The window lasts args.seconds of CPU time, or
  // kWallCap times that on the wall clock, whichever comes first. The host
  // probe runs every kProbeEvery of it; its time is left out of the window.
  LatencyLog solve_lat, traced_lat, eval_lat, update_lat;
  uint64_t solved = 0, traced_builds = 0;
  std::vector<size_t> traced_answers;
  double window_cpu_s = 0;
  {
    SpanLog off(false);
    const int64_t start = ThreadCpuNs();
    const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
    const int64_t wall_end =
        NowNs() + static_cast<int64_t>(kWallCap * args.seconds * 1e9);
    const auto probe_every = static_cast<int64_t>(kProbeEvery * 1e9);
    int64_t next_probe = start + probe_every, probe_ns = 0;
    while (ThreadCpuNs() < end && NowNs() < wall_end) {
      if (ThreadCpuNs() >= next_probe) {
        const int64_t p0 = ThreadCpuNs();
        probe.Run(ThreadCpuNs);
        probe_ns += ThreadCpuNs() - p0;
        next_probe += probe_every;
      }
      const bool traced = TracedSlice(args.trace, start, ThreadCpuNs());
      LatencyLog* lat = traced ? &traced_lat : &solve_lat;
      const vblock::IminQuery q = stream.Next();
      const int64_t t0 = ThreadCpuNs();
      const auto r = [&] {
        ScopedSpan span(traced ? log : &off, "core.SolveImin", ++request_id);
        return vblock::SolveImin(g, q.seeds, OptionsFor(q));
      }();
      const double ms = static_cast<double>(ThreadCpuNs() - t0) / 1e6;
      if (!r.ok()) {
        lat->Fail();
        std::printf("FAIL SolveImin: %s\n", r.status().ToString().c_str());
        continue;
      }
      if (!ValidAnswer(r->blockers, q.seeds, q.budget, g.NumVertices(),
                       ExpectedCount(g, q))) {
        lat->Fail();
        std::printf("FAIL invalid answer for query %zu\n", answers.size());
        continue;
      }
      lat->Record(ms);
      if (traced) {
        traced_answers.push_back(answers.size());
        if (r->stats.pool_build_seconds > 0) ++traced_builds;
      }
      answers.push_back({q, r->blockers});
      if (++solved % kSideEvery != 0) continue;

      vblock::EvaluationOptions eval;
      eval.mc_rounds = kEvalRounds;
      const int64_t e0 = ThreadCpuNs();
      const double spread = vblock::EvaluateSpread(g, q.seeds, r->blockers, eval);
      const double eval_ms = static_cast<double>(ThreadCpuNs() - e0) / 1e6;
      if (spread < kSeedsPerQuery || spread > g.NumVertices()) {
        eval_lat.Fail();
        std::printf("FAIL EvaluateSpread gave %f\n", spread);
      } else {
        eval_lat.Record(eval_ms);
      }

      deltas.push_back(tracker.Churn(delta_rng, changes));
      const int64_t u0 = ThreadCpuNs();
      vblock::Result<vblock::Graph> next = vblock::ApplyDelta(current, deltas.back());
      if (next.ok()) next->GroupedView();
      const double update_ms = static_cast<double>(ThreadCpuNs() - u0) / 1e6;
      if (!next.ok()) {
        update_lat.Fail();
        std::printf("FAIL ApplyDelta: %s\n", next.status().ToString().c_str());
        continue;
      }
      update_lat.Record(update_ms);
      current = std::move(*next);
    }
    window_cpu_s = static_cast<double>(ThreadCpuNs() - start - probe_ns) / 1e9;
  }
  for (const LatencyLog* l : {&solve_lat, &traced_lat, &eval_lat, &update_lat}) {
    report->Count(*l);
  }

  // The same queries must give the same answers when asked again.
  for (size_t i = 0; i < std::min(kRepeatPrefix, answers.size()); ++i) {
    ++report->attempted;
    auto r = vblock::SolveImin(g, answers[i].query.seeds,
                               OptionsFor(answers[i].query));
    if (!r.ok() || r->blockers != answers[i].blockers) {
      report->Fail("repeated query " + std::to_string(i) + " answered differently");
    }
  }

  if (args.trace) {
    ReplayInput in;
    in.graph = &g;
    in.defaults.theta = kTheta;
    for (size_t i : traced_answers) {
      if (in.queries.size() == kReplayQueries) break;
      in.queries.push_back(answers[i].query);
    }
    in.update_base = &g;
    in.deltas = deltas;
    ReplayLayers(in, log, layers);
    (*layers)["gen.dataset_ms"] = Median(log->Durations("gen.MakeDataset"));
    (*layers)["graph.grouped_view_ms"] =
        Median(log->Durations("graph.GroupedView"));
    (*layers)["core.build_calls"] = static_cast<double>(traced_builds);
    (*layers)["obs.probe_ms"] = probe.MedianMs();
    (*layers)["obs.trace_overhead"] =
        traced_lat.Percentile(50) / solve_lat.Percentile(50) - 1;
    return;
  }

  const size_t ruled = std::min(kRulerQueries, answers.size());
  const SpreadEstimate blocked = BlockedSpread(
      g, std::vector<Answer>(answers.begin(), answers.begin() + ruled));
  std::printf(
      "solve-cold: %llu solves (p%.0f is the highest tail with >=10 beyond), "
      "blocked_spread %.4f +- %.4f over %zu queries\n",
      static_cast<unsigned long long>(solved),
      HighestTailPercentile(solve_lat.attempted()), blocked.mean,
      blocked.stderr_of_mean, ruled);

  ReportEndToEnd(setup_s, solve_lat, solved, window_cpu_s, eval_lat,
                 update_lat, blocked, probe, report);
}

}  // namespace perfbench
