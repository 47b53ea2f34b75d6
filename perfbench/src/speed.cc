#include "speed.h"

#include <algorithm>

#include "inputs.h"
#include "stats.h"

namespace perfbench {
namespace {

// The probe's fixed work. Generation: kVertices vertices with 2–14
// out-edges each to uniform random targets, as a shuffled edge list that is
// sorted and packed into adjacency arrays. Traversal: kRounds forward
// cascades, each edge live with kEdgeProbability (mean out-degree 8 at 0.1
// keeps them subcritical, a few dozen vertices, like the workloads'
// graphs), each round from the next kSeeds vertices of a fixed stride walk.
// The two halves stand for the two kinds of work the workloads time: graph
// generation in set-up, and sampling, solving and evaluation in the
// window. The arrays (about 430 KB) stay in L2, as the solver's per-query
// arrays do; a cascade-only probe eight times larger swung three times as
// much as the solver did on a drifting host.
constexpr uint32_t kVertices = 4096;
constexpr uint32_t kSeedStride = 7919;  // prime: the walk visits every vertex
constexpr uint64_t kGraphSeed = 0x9a9e;
constexpr double kEdgeProbability = 0.1;
constexpr uint32_t kSeeds = 5;
constexpr uint32_t kRounds = 800;
constexpr uint64_t kCoinSeed = 0xc011;

// SplitMix64: small, fast, and owned here.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void SpeedProbe::Run(int64_t (*clock)()) {
  const int64_t t0 = clock();
  // Generation: a shuffled edge list, sorted and packed into adjacency
  // arrays, as a loader builds a graph.
  uint64_t state = kGraphSeed;
  edges_.clear();
  for (uint32_t u = 0; u < kVertices; ++u) {
    const uint64_t degree = 2 + NextRandom(&state) % 13;
    for (uint64_t k = 0; k < degree; ++k) {
      edges_.push_back({static_cast<uint32_t>(NextRandom(&state) % kVertices), u});
    }
  }
  std::sort(edges_.begin(), edges_.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  offsets_.assign(1, 0);
  targets_.clear();
  for (const auto& [v, u] : edges_) {
    while (offsets_.size() <= u) offsets_.push_back(static_cast<uint32_t>(targets_.size()));
    targets_.push_back(v);
  }
  while (offsets_.size() <= kVertices) {
    offsets_.push_back(static_cast<uint32_t>(targets_.size()));
  }

  // Traversal: forward cascades, each edge live with kEdgeProbability,
  // with coins from the same seed on every Run.
  state = kCoinSeed;
  const auto live = static_cast<uint64_t>(kEdgeProbability * 0x1.0p24);
  stamp_.assign(kVertices, 0);
  uint64_t activated = 0;
  for (uint32_t r = 1; r <= kRounds; ++r) {
    frontier_.clear();
    for (uint32_t s = 0; s < kSeeds; ++s) {
      const uint32_t seed = (r * kSeeds + s) * kSeedStride % kVertices;
      if (stamp_[seed] == r) continue;
      stamp_[seed] = r;
      frontier_.push_back(seed);
    }
    for (size_t head = 0; head < frontier_.size(); ++head) {
      const uint32_t u = frontier_[head];
      for (uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const uint32_t v = targets_[e];
        if (stamp_[v] != r && (NextRandom(&state) >> 40) < live) {
          stamp_[v] = r;
          frontier_.push_back(v);
        }
      }
    }
    activated += frontier_.size();
  }
  ms_.push_back(static_cast<double>(clock() - t0) / 1e6);
  activations_ = activated;
}

double SpeedProbe::MedianMs() const { return ms_.empty() ? 0 : Median(ms_); }

double SpeedProbe::Slowdown() const {
  return ms_.empty() ? 1 : Median(ms_) / kProbeReferenceMs;
}

}  // namespace perfbench
