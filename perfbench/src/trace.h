#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed interval around a call into a layer. `parent` is the index of
/// the enclosing span (-1 for a request root); spans of one operation
/// share `request`.
struct Span {
  std::string name;
  int parent = -1;
  uint64_t request = 0;
  double start_ms = 0;
  double end_ms = 0;
};

/// In-memory span recorder. Spans nest by call order: a span begun while
/// another is open becomes its child. A disabled tracer records nothing,
/// so the untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span; returns its index, or -1 when disabled.
  int Begin(std::string_view name, uint64_t request);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON object per line. False on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t request)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Per-layer view of the spans below roots named `root_name`: for every
/// span name, the self time that name accrued in each such request (one
/// entry per request in which the name occurs).
struct LayerTimes {
  std::map<std::string, std::vector<double>> per_request_ms;
  size_t roots = 0;
  double root_total_ms = 0;       // sum of root durations
  double accounted_total_ms = 0;  // sum of descendant self times
};
LayerTimes CollectLayerTimes(const std::vector<Span>& spans,
                             std::string_view root_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
