#ifndef E2EBENCH_SRC_TRACE_H_
#define E2EBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2ebench {

/// In-memory spans of the traced run: name, start, end, parent span and
/// request id, recorded around the calls into each layer and written out
/// when the benchmark ends. A disabled tracer records nothing, so the same
/// code path serves the untraced reference pass.
/// Thread-compatibility: compatible (one tracer per thread).
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when disabled.
  int Begin(const char* name, std::int64_t request, int parent);
  void End(int span);
  /// Records a finished span with given bounds (spans rebuilt from a
  /// response's own timing fields).
  int Add(const char* name, std::int64_t request, int parent,
          Clock::time_point start, Clock::time_point end);

  /// Self time in microseconds of every span named `name`: its duration
  /// minus the part its child spans cover.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  /// Appends the spans as tab-separated lines
  /// (name, request, span, parent, start_ns, end_ns) to `out`.
  void AppendTsv(const std::string& label, std::string* out) const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    std::int64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  int NameId(const char* name);
  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_ids_;
  std::vector<Span> spans_;
};

/// A span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t request,
             int parent = -1)
      : tracer_(tracer), span_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_TRACE_H_
