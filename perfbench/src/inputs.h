// Seeded input generation. Every input the program under test receives —
// graph recipe, seed sets, budgets, key order, graph deltas — is derived
// here from the workload seed with the benchmark's own generator, so the
// same seed gives the same inputs on every commit.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_delta.h"

namespace perfbench {

using Rng = std::mt19937_64;

// Independent sub-seed for one input stream of a run.
uint64_t SubSeed(uint64_t seed, std::string_view stream);

// Uniform integer in [0, n).
uint64_t Below(Rng& rng, uint64_t n);

// `k` distinct vertices from `candidates`, sorted ascending.
std::vector<vblock::VertexId> DrawSeedSet(
    Rng& rng, const std::vector<vblock::VertexId>& candidates, uint32_t k);

// Bounds on a seed set's reach, both measured by the benchmark's own ruler:
// its expected spread, and its residual spread once its ten highest
// out-degree out-neighbours are blocked (a cheap stand-in for how far
// blocking can bring it down).
struct ReachBand {
  double spread_lo, spread_hi;
  double residual_lo, residual_hi;
};

// `k` distinct vertices from `candidates` whose reach lies in `band`.
// Drawing every seed set from one band keeps a run's query mix, and so its
// metrics, from depending on the luck of the draw.
std::vector<vblock::VertexId> DrawBandedSeedSet(
    Rng& rng, const vblock::Graph& g,
    const std::vector<vblock::VertexId>& candidates, uint32_t k,
    const ReachBand& band);

// Vertices with at least one out-edge: seed sets drawn from them spread.
std::vector<vblock::VertexId> SpreadingVertices(const vblock::Graph& g);

// Distinct out-neighbours of `seeds` that are not seeds themselves — the
// super-seed's out-degree after unification, which caps a GR answer.
uint32_t NonSeedOutNeighbors(const vblock::Graph& g,
                             const std::vector<vblock::VertexId>& seeds);

// Zipf(s) ranks over n keys: rank r is drawn with weight 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s);
  uint32_t operator()(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

// The generator's own copy of a graph's edge set, so that every delta it
// emits is valid against the graph the server holds after all earlier
// deltas were applied in order.
class EdgeTracker {
 public:
  explicit EdgeTracker(const vblock::Graph& g);

  // Deletes `changes / 2` random edges and inserts the rest as new edges
  // whose probabilities are copied from random existing edges (so the
  // graph's probability classes stay the same).
  vblock::GraphDelta Churn(Rng& rng, uint32_t changes);

  // Swaps the probabilities of `pairs` random edge pairs. The multiset of
  // probabilities is unchanged, and no edge in the row where its old or new
  // value first appears (in vertex order) is touched, so the graph's
  // probability classes keep their first-appearance order.
  vblock::GraphDelta SwapProbabilities(Rng& rng, uint32_t pairs);

 private:
  static uint64_t KeyOf(vblock::VertexId u, vblock::VertexId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  void Erase(size_t index);

  vblock::VertexId n_ = 0;
  std::vector<vblock::Edge> edges_;
  std::unordered_map<uint64_t, size_t> index_;  // (u,v) -> position in edges_
  std::unordered_map<double, vblock::VertexId> first_row_;  // value -> lowest source
};

// The UPDATE protocol line for `delta` against registry name `graph`.
std::string UpdateLine(const std::string& graph, const vblock::GraphDelta& delta);

// "a,b,c" for a vertex list ("-" when empty).
std::string JoinIds(const std::vector<vblock::VertexId>& ids);

}  // namespace perfbench
