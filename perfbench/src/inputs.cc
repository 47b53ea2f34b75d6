#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "ruler.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, std::string_view stream) {
  uint64_t h = 0xcbf29ce484222325ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
  for (unsigned char c : stream) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // SplitMix64 finalizer: nearby seeds give unrelated streams.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

uint64_t Below(Rng& rng, uint64_t n) {
  return std::uniform_int_distribution<uint64_t>(0, n - 1)(rng);
}

std::vector<vblock::VertexId> DrawSeedSet(
    Rng& rng, const std::vector<vblock::VertexId>& candidates, uint32_t k) {
  if (candidates.size() < k) throw std::runtime_error("too few seed candidates");
  std::unordered_set<vblock::VertexId> chosen;
  while (chosen.size() < k) chosen.insert(candidates[Below(rng, candidates.size())]);
  std::vector<vblock::VertexId> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<vblock::VertexId> DrawBandedSeedSet(
    Rng& rng, const vblock::Graph& g,
    const std::vector<vblock::VertexId>& candidates, uint32_t k,
    const ReachBand& band) {
  constexpr uint32_t kRounds = 40;
  constexpr size_t kBlocked = 10;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    std::vector<vblock::VertexId> seeds = DrawSeedSet(rng, candidates, k);
    const double spread = ForwardSpread(g, seeds, {}, kRounds, rng()).mean;
    if (spread < band.spread_lo || spread > band.spread_hi) continue;
    std::vector<vblock::VertexId> out;
    for (vblock::VertexId s : seeds) {
      for (vblock::VertexId v : g.OutNeighbors(s)) {
        if (!std::binary_search(seeds.begin(), seeds.end(), v)) out.push_back(v);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    std::stable_sort(out.begin(), out.end(), [&](vblock::VertexId a, vblock::VertexId b) {
      return g.OutDegree(a) > g.OutDegree(b);
    });
    out.resize(std::min(out.size(), kBlocked));
    const double residual = ForwardSpread(g, seeds, out, kRounds, rng()).mean;
    if (residual >= band.residual_lo && residual <= band.residual_hi) return seeds;
  }
  throw std::runtime_error("no seed set in the reach band");
}

std::vector<vblock::VertexId> SpreadingVertices(const vblock::Graph& g) {
  std::vector<vblock::VertexId> out;
  for (vblock::VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > 0) out.push_back(v);
  }
  return out;
}

uint32_t NonSeedOutNeighbors(const vblock::Graph& g,
                             const std::vector<vblock::VertexId>& seeds) {
  std::unordered_set<vblock::VertexId> seed_set(seeds.begin(), seeds.end());
  std::unordered_set<vblock::VertexId> out;
  for (vblock::VertexId s : seeds) {
    for (vblock::VertexId v : g.OutNeighbors(s)) {
      if (!seed_set.count(v)) out.insert(v);
    }
  }
  return static_cast<uint32_t>(out.size());
}

ZipfSampler::ZipfSampler(uint32_t n, double s) {
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

uint32_t ZipfSampler::operator()(Rng& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1));
}

EdgeTracker::EdgeTracker(const vblock::Graph& g) : n_(g.NumVertices()) {
  for (vblock::VertexId u = 0; u < n_; ++u) {
    const auto targets = g.OutNeighbors(u);
    const auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      index_[KeyOf(u, targets[k])] = edges_.size();
      edges_.push_back({u, targets[k], probs[k]});
      first_row_.try_emplace(probs[k], u);
    }
  }
}

void EdgeTracker::Erase(size_t index) {
  index_.erase(KeyOf(edges_[index].source, edges_[index].target));
  if (index + 1 != edges_.size()) {
    edges_[index] = edges_.back();
    index_[KeyOf(edges_[index].source, edges_[index].target)] = index;
  }
  edges_.pop_back();
}

vblock::GraphDelta EdgeTracker::Churn(Rng& rng, uint32_t changes) {
  vblock::GraphDelta delta;
  const uint32_t deletes = changes / 2;
  // Inserts first, probabilities copied before any delete removes them, and
  // only then deletes — never of an edge this delta inserted.
  std::vector<vblock::Edge> inserts;
  std::unordered_set<uint64_t> inserted;
  while (inserts.size() < changes - deletes) {
    const auto u = static_cast<vblock::VertexId>(Below(rng, n_));
    const auto v = static_cast<vblock::VertexId>(Below(rng, n_));
    if (u == v || index_.count(KeyOf(u, v)) || inserted.count(KeyOf(u, v))) continue;
    inserted.insert(KeyOf(u, v));
    inserts.push_back({u, v, edges_[Below(rng, edges_.size())].probability});
  }
  for (uint32_t i = 0; i < deletes; ++i) {
    const size_t at = Below(rng, edges_.size());
    delta.delete_edges.push_back({edges_[at].source, edges_[at].target});
    Erase(at);
  }
  for (const vblock::Edge& e : inserts) {
    index_[KeyOf(e.source, e.target)] = edges_.size();
    edges_.push_back(e);
  }
  delta.insert_edges = std::move(inserts);
  return delta;
}

vblock::GraphDelta EdgeTracker::SwapProbabilities(Rng& rng, uint32_t pairs) {
  vblock::GraphDelta delta;
  std::unordered_set<size_t> used;
  for (uint32_t i = 0; i < pairs;) {
    const size_t a = Below(rng, edges_.size());
    const size_t b = Below(rng, edges_.size());
    const double pa = edges_[a].probability, pb = edges_[b].probability;
    const vblock::VertexId ua = edges_[a].source, ub = edges_[b].source;
    const auto first = [&](double p) { return first_row_.at(p); };
    if (a == b || used.count(a) || used.count(b) || pa == pb ||
        ua <= std::max(first(pa), first(pb)) ||
        ub <= std::max(first(pa), first(pb))) {
      continue;
    }
    used.insert(a);
    used.insert(b);
    std::swap(edges_[a].probability, edges_[b].probability);
    delta.update_probabilities.push_back(edges_[a]);
    delta.update_probabilities.push_back(edges_[b]);
    ++i;
  }
  return delta;
}

std::string UpdateLine(const std::string& graph,
                       const vblock::GraphDelta& delta) {
  std::string line = "UPDATE " + graph;
  char buf[96];
  auto groups = [&](const char* flag, const std::vector<vblock::Edge>& edges) {
    if (edges.empty()) return;
    line += ' ';
    line += flag;
    for (size_t i = 0; i < edges.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%u,%u,%.17g", i ? ";" : " ",
                    edges[i].source, edges[i].target, edges[i].probability);
      line += buf;
    }
  };
  groups("ADD", delta.insert_edges);
  if (!delta.delete_edges.empty()) {
    line += " DEL";
    for (size_t i = 0; i < delta.delete_edges.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%u,%u", i ? ";" : " ",
                    delta.delete_edges[i].source, delta.delete_edges[i].target);
      line += buf;
    }
  }
  groups("PROB", delta.update_probabilities);
  return line;
}

std::string JoinIds(const std::vector<vblock::VertexId>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace perfbench
