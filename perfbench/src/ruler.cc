#include "ruler.h"

#include <algorithm>
#include <cmath>

#include "bench.h"

namespace perfbench {
namespace {

// The ruler's fixed cascades per estimate and base seed.
constexpr uint32_t kRulerRounds = 2000;
constexpr uint64_t kRulerSeed = 0x5eed5eed;

// SplitMix64: small and fast, and owned here so the ruler's coins never
// depend on the program's generators.
class CoinRng {
 public:
  explicit CoinRng(uint64_t seed) : state_(seed) {}
  // Uniform double in [0, 1).
  double Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

// Mean of per-query estimates, with the standard error of that mean.
SpreadEstimate MeanOf(const std::vector<SpreadEstimate>& estimates) {
  SpreadEstimate out;
  if (estimates.empty()) return out;
  double var = 0;
  for (const SpreadEstimate& e : estimates) {
    out.mean += e.mean;
    var += e.stderr_of_mean * e.stderr_of_mean;
  }
  const double q = static_cast<double>(estimates.size());
  out.mean /= q;
  out.stderr_of_mean = std::sqrt(var) / q;
  return out;
}

}  // namespace

SpreadEstimate ForwardSpread(const vblock::Graph& g,
                             const std::vector<vblock::VertexId>& seeds,
                             const std::vector<vblock::VertexId>& blocked,
                             uint32_t rounds, uint64_t seed) {
  const vblock::VertexId n = g.NumVertices();
  CoinRng rng(seed);
  std::vector<uint32_t> stamp(n, 0);  // == round + 1 once active this round
  std::vector<uint8_t> is_blocked(n, 0);
  for (vblock::VertexId b : blocked) is_blocked[b] = 1;
  std::vector<vblock::VertexId> frontier;
  double sum = 0, sum_sq = 0;
  for (uint32_t r = 0; r < rounds; ++r) {
    const uint32_t mark = r + 1;
    frontier.clear();
    for (vblock::VertexId s : seeds) {
      if (stamp[s] != mark) {
        stamp[s] = mark;
        frontier.push_back(s);
      }
    }
    for (size_t head = 0; head < frontier.size(); ++head) {
      const vblock::VertexId u = frontier[head];
      const auto targets = g.OutNeighbors(u);
      const auto probs = g.OutProbabilities(u);
      for (size_t k = 0; k < targets.size(); ++k) {
        const vblock::VertexId v = targets[k];
        if (stamp[v] == mark || is_blocked[v]) continue;
        if (rng.Next() < probs[k]) {
          stamp[v] = mark;
          frontier.push_back(v);
        }
      }
    }
    const double active = static_cast<double>(frontier.size());
    sum += active;
    sum_sq += active * active;
  }
  SpreadEstimate e;
  const double m = static_cast<double>(rounds);
  e.mean = sum / m;
  const double var = rounds > 1 ? (sum_sq - m * e.mean * e.mean) / (m - 1) : 0;
  e.stderr_of_mean = std::sqrt(std::max(0.0, var) / m);
  return e;
}

SpreadEstimate BlockedSpread(const vblock::Graph& g,
                             const std::vector<Answer>& answers) {
  std::vector<SpreadEstimate> spreads;
  for (size_t i = 0; i < answers.size(); ++i) {
    spreads.push_back(ForwardSpread(g, answers[i].query.seeds,
                                    answers[i].blockers, kRulerRounds,
                                    kRulerSeed + i));
  }
  return MeanOf(spreads);
}

}  // namespace perfbench
