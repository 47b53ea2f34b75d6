// Self-tests of the benchmark's own statistics and bookkeeping: percentile
// selection, failure accounting, span self time, answer checks and delta
// generation. Exit code 0 when every check holds.

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "inputs.h"
#include "ruler.h"
#include "spans.h"
#include "speed.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void TestPercentileSelection() {
  using perfbench::HighestTailPercentile;
  Check(HighestTailPercentile(100) == 90, "100 samples support p90");
  Check(HighestTailPercentile(99) == 75, "99 samples fall back to p75");
  Check(HighestTailPercentile(1000) == 99, "1000 samples support p99");
  Check(HighestTailPercentile(10000) == 99.9, "10000 samples support p99.9");
  Check(HighestTailPercentile(15) == 0, "15 samples leave <10 beyond the median");

  perfbench::LatencyLog log;
  for (int i = 100; i >= 1; --i) log.Record(i);
  Check(log.Percentile(90) == 90, "nearest rank p90 of 1..100");
  Check(log.Percentile(50) == 50, "nearest rank p50 of 1..100");
  perfbench::LatencyLog one;
  one.Record(7);
  Check(one.Percentile(90) == 7, "single sample");
  Check(perfbench::Median({3, 1, 2, 10}) == 2.5, "even-count median");
}

void TestFailureAccounting() {
  perfbench::LatencyLog log;
  for (int i = 1; i <= 8; ++i) log.Record(i);
  log.Fail();
  log.Fail();
  Check(log.attempted() == 10 && log.failed() == 2, "attempts include failures");
  Check(log.Percentile(50) == 5, "p50 over 10 attempts is the 5th sample");
  Check(log.Percentile(80) == 8, "p80 is the last completed sample");
  Check(std::isinf(log.Percentile(90)), "a failure misses every latency limit");

  perfbench::Report report;
  report.Count(log);
  Check(!report.correct && report.attempted == 10 && report.failed == 2,
        "report counts the log's failures and fails the run");
  perfbench::LatencyLog empty;
  Check(std::isnan(empty.Percentile(50)), "no attempts, no percentile");
}

void TestSelfTime() {
  using perfbench::Span;
  // Root [0,100) with children [10,30) and [20,50) (overlapping: 40 covered)
  // and grandchild [12,15) under the first child.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"c", 12, 15, 1, 1},
      {"late", 90, 120, 0, 1},  // runs past its parent: clipped to [90,100)
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  Check(self[0] == 100 - 40 - 10, "root self time excludes covered children");
  Check(self[1] == 20 - 3, "child self time excludes its grandchild");
  Check(self[2] == 30, "leaf self time is its duration");
  Check(self[4] == 30, "clipping does not change the child's own time");

  perfbench::SpanLog log(true);
  {
    perfbench::ScopedSpan outer(&log, "outer");
    perfbench::ScopedSpan inner(&log, "inner");
  }
  Check(log.spans().size() == 2 && log.spans()[1].parent == 0,
        "scoped spans nest under the innermost open span");
  // A round trip timed elsewhere with the service's part inside it: the
  // round trip's self time is the wire.
  const int32_t trip = log.Add("net.roundtrip", 1000, 1500, 7);
  const int32_t served = log.Add("service.request", 1100, 1450, 7, trip);
  Check(log.spans()[static_cast<size_t>(served)].parent == trip,
        "an added span takes the parent it is given");
  Check(perfbench::SelfTimesNs(log.spans())[static_cast<size_t>(trip)] == 150,
        "round trip self time excludes the service's part");
  perfbench::SpanLog off(false);
  { perfbench::ScopedSpan s(&off, "x"); }
  Check(off.spans().empty(), "a disabled log records nothing");
}

void TestAnswersAndInputs() {
  using perfbench::ValidAnswer;
  Check(ValidAnswer({4, 5}, {1, 2}, 2, 10, 2), "valid answer");
  Check(!ValidAnswer({4, 4}, {1, 2}, 2, 10, -1), "duplicate blocker");
  Check(!ValidAnswer({1, 5}, {1, 2}, 2, 10, -1), "seed as blocker");
  Check(!ValidAnswer({4, 12}, {1, 2}, 2, 10, -1), "out-of-range blocker");
  Check(!ValidAnswer({4, 5, 6}, {1, 2}, 2, 10, -1), "over budget");
  Check(!ValidAnswer({4}, {1, 2}, 2, 10, 2), "wrong count");
  Check(perfbench::ParseBlockers("OK blockers=3,1,2 rounds=3 pool=warm") ==
            std::vector<vblock::VertexId>({3, 1, 2}),
        "parse blockers");
  Check(!perfbench::ParseBlockers("ERR NotFound x"), "ERR has no blockers");
  Check(perfbench::Field("OK graph=g epoch=3 migrated=4 rebuilt=0", "migrated") ==
            std::string("4"),
        "field lookup");

  // A ring; every generated delta must apply to the graph as
  // updated by the deltas before it.
  vblock::GraphBuilder b;
  for (vblock::VertexId v = 0; v < 40; ++v) b.AddEdge(v, (v + 1) % 40, v % 2 ? 0.1 : 0.01);
  vblock::Graph g = *b.Build();
  perfbench::EdgeTracker tracker(g);
  perfbench::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    vblock::GraphDelta d =
        i % 2 ? tracker.Churn(rng, 6) : tracker.SwapProbabilities(rng, 2);
    vblock::Result<vblock::Graph> next = vblock::ApplyDelta(g, d);
    Check(next.ok(), "generated delta " + std::to_string(i) + " applies");
    if (!next.ok()) return;
    g = std::move(*next);
  }
  Check(g.NumEdges() == 40, "churn keeps the edge count");

  // Two seeds, same inputs; the ruler is deterministic for a fixed seed.
  perfbench::Rng a(perfbench::SubSeed(3, "keys")), c(perfbench::SubSeed(3, "keys"));
  std::vector<vblock::VertexId> all;
  for (vblock::VertexId v = 0; v < 40; ++v) all.push_back(v);
  Check(perfbench::DrawSeedSet(a, all, 5) == perfbench::DrawSeedSet(c, all, 5),
        "same seed, same seed set");
  const auto s1 = perfbench::ForwardSpread(g, {0}, {}, 500, 9);
  const auto s2 = perfbench::ForwardSpread(g, {0}, {}, 500, 9);
  Check(s1.mean == s2.mean && s1.mean >= 1, "ruler repeats for a fixed seed");
  Check(perfbench::ForwardSpread(g, {0}, {1}, 500, 9).mean <= s1.mean,
        "blocking never raises the ruler's spread on a ring");
}

void TestSpeedProbe() {
  perfbench::SpeedProbe probe;
  Check(probe.Slowdown() == 1, "no probe run, no scaling");
  probe.Run(perfbench::NowNs);
  const uint64_t first = probe.activations();
  probe.Run(perfbench::ThreadCpuNs);
  probe.Run(perfbench::NowNs);
  Check(first > 800 * 5 && probe.activations() == first,
        "every probe run does the same work");
  Check(probe.runs() == 3 && probe.MedianMs() > 0, "probe runs are timed");
  Check(std::fabs(probe.Slowdown() * perfbench::kProbeReferenceMs - probe.MedianMs()) < 1e-9,
        "slowdown is the median probe time over the reference");
}

}  // namespace

int main() {
  TestPercentileSelection();
  TestFailureAccounting();
  TestSelfTime();
  TestAnswersAndInputs();
  TestSpeedProbe();
  std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
