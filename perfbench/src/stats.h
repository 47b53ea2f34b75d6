// Statistics the benchmark reports: percentiles with failure accounting.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// Latencies of one request class in one run. A failed request (ERR reply,
// refused or dropped connection, timeout, wrong answer) has no latency: it
// ranks behind every completed request, so failures can only push a
// percentile up — a failure counts as having missed any latency limit.
class LatencyLog {
 public:
  void Record(double ms) { ms_.push_back(ms); }
  void Fail() { ++failed_; }

  uint64_t attempted() const { return ms_.size() + failed_; }
  uint64_t failed() const { return failed_; }

  // Nearest-rank percentile over all attempts: the smallest latency with at
  // least p% of the attempts at or below it. +infinity when that rank lands
  // on a failure, NaN when nothing was attempted.
  double Percentile(double p) const;

 private:
  std::vector<double> ms_;
  uint64_t failed_ = 0;
};

// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at least
// `min_beyond` of `n` samples strictly above its nearest rank; 0 when even
// the median does not.
double HighestTailPercentile(uint64_t n, uint64_t min_beyond = 10);

double Median(std::vector<double> values);

}  // namespace perfbench
