// In-memory span log for the traced run. Spans are recorded by the
// benchmark's own code around each call it makes into a layer's public
// function; nothing inside the program under test is instrumented.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

int64_t NowNs();

// CPU time of the calling thread. It leaves out the time the thread was
// not running: preempted in the guest, or its vCPU taken by the host
// (steal time, on kernels with paravirtual time accounting).
int64_t ThreadCpuNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index into the log, -1 for a root span
  uint64_t request = 0;  // spans of one request share this id (0 = none)
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children are counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

class SpanLog {
 public:
  // A disabled log records nothing and reads no clock.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span whose parent is the innermost open span. Returns its
  // index, or -1 when disabled.
  int32_t Begin(std::string name, uint64_t request = 0);
  void End(int32_t index);

  // Records a span timed elsewhere (e.g. ended on another thread) under
  // `parent`, or under the innermost open span when `parent` is omitted.
  // Returns its index, or -1 when disabled.
  int32_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              uint64_t request = 0, std::optional<int32_t> parent = std::nullopt);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations of every closed span named `name`, in `unit_ns` units.
  std::vector<double> Durations(std::string_view name,
                                double unit_ns = 1e6) const;

  // Writes every span (with its self time) as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span on a SpanLog (no-op when the log is disabled or null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t request = 0)
      : log_(log),
        index_(log ? log->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace perfbench
