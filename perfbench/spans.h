// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's modules (api, serve, core, pattern) and around each wire
// request it sends; nothing inside the library is instrumented. A span's
// layer is its name up to the first '.', so "api.solve" belongs to "api".
// The recorder keeps every span in memory, writes them as Chrome-trace JSON
// when asked, and computes each layer's self time: a span's duration minus
// the part of it covered by its child spans.
//
// A disabled recorder (the untraced run) records nothing and costs one
// branch per call.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

class SpanRecorder {
 public:
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span starting now, as a child of the innermost open span;
  /// returns its id (kNoSpan when disabled).
  std::size_t Begin(const std::string& name);
  /// Closes span `id`, the innermost open one, now. No-op for kNoSpan.
  void End(std::size_t id);
  /// Records a span whose start and end were observed elsewhere (an
  /// asynchronous wire request, timed from send to response) as a child of
  /// the innermost open span, on track `request`.
  void Add(const std::string& name, double start, double end,
           std::uint64_t request);

  /// Self seconds per layer, summed over all closed spans.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes {"traceEvents": [...]} for chrome://tracing or Perfetto.
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  /// Time spent inside Begin/End/Add, for the overhead figure.
  double own_seconds() const { return own_seconds_; }

 private:
  struct Span {
    std::string name;
    std::size_t parent = kNoSpan;
    std::uint64_t request = 0;
    double start = 0.0;
    double end = -1.0;  // < start while open
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // ids of the open spans, innermost last
  double own_seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
