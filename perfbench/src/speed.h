// The host-speed probe. A shared host's speed drifts by tens of percent
// over minutes (clock boost, SMT siblings and caches taken by other
// tenants), on the CPU clock as much as on the wall clock, so a run's raw
// timings say as much about the host as about the program. The probe is a
// fixed amount of graph-shaped work, generation and cascades on a graph
// the benchmark builds itself from fixed seeds. It calls no code of the
// program under test, so a change to the program cannot move it except
// through the host. A run times the probe repeatedly beside its workload
// and reports its timings scaled to the reference speed (see Slowdown()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Median probe time, in ms, that defines the reference speed: about what
// the probe takes on a 2.1 GHz Sapphire Rapids vCPU of a shared host. A run
// whose median probe takes this long reports its timings unscaled.
constexpr double kProbeReferenceMs = 2.5;

class SpeedProbe {
 public:
  SpeedProbe() = default;

  // Runs the fixed work once and records its duration on `clock` (NowNs or
  // ThreadCpuNs, whichever clock the workload's timings use).
  void Run(int64_t (*clock)());

  // The run's median probe time over kProbeReferenceMs: 1 at the reference
  // speed, 1.25 on a host running 25% slower. Timings are divided by it,
  // rates multiplied. 1 before the first Run. The scaling is only as good
  // as the probe's likeness to the program's work; STEADINESS.md records
  // how much of the drift it removes.
  double Slowdown() const;

  double MedianMs() const;
  size_t runs() const { return ms_.size(); }
  // Vertices activated by one Run; the same on every Run.
  uint64_t activations() const { return activations_; }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> edges_;  // (target, source)
  std::vector<uint32_t> offsets_, targets_;
  std::vector<uint32_t> stamp_, frontier_;
  std::vector<double> ms_;
  uint64_t activations_ = 0;
};

}  // namespace perfbench
