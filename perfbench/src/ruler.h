// The spread ruler: a forward independent-cascade Monte-Carlo owned by the
// benchmark. It reads the graph only through public Graph accessors and
// draws from its own generator with a fixed seed and round count, so a
// change to the program's sampling kernels cannot move the quality number.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

struct SpreadEstimate {
  double mean = 0;
  double stderr_of_mean = 0;
};

// Expected number of active vertices (seeds included) when `seeds` start
// active and `blocked` vertices never activate, over `rounds` cascades.
SpreadEstimate ForwardSpread(const vblock::Graph& g,
                             const std::vector<vblock::VertexId>& seeds,
                             const std::vector<vblock::VertexId>& blocked,
                             uint32_t rounds, uint64_t seed);

}  // namespace perfbench
