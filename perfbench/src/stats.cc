#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {
namespace {

// 1-based nearest rank of percentile p among n samples.
uint64_t Rank(uint64_t n, double p) {
  // The epsilon keeps exact products (90% of 100 = 90) from rounding up.
  const double exact = p / 100.0 * static_cast<double>(n);
  uint64_t rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

double LatencyLog::Percentile(double p) const {
  const uint64_t n = attempted();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const uint64_t rank = Rank(n, p);
  if (rank > ms_.size()) return std::numeric_limits<double>::infinity();
  std::vector<double> sorted = ms_;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

double HighestTailPercentile(uint64_t n, uint64_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n > 0 && n - Rank(n, p) >= min_beyond) return p;
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
