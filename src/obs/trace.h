// Hierarchical trace spans with steady-clock timestamps, thread-id tagging
// and point-in-time events — the per-phase view the paper's experimental
// section (budget rounds, per-level picks, lattice pruning) needs and the
// single wall-clock number in SolveResult cannot give.
//
// Recording model: a TraceSession owns the recorded spans/events plus a
// MetricRegistry; solvers receive a raw `TraceSession*` (nullptr = tracing
// off). The RAII `Span` wrapper costs a single branch on that pointer when
// tracing is disabled, so it is safe to leave in hot loops. Parenting is
// implicit: each thread keeps a stack of its currently open spans per
// session, and BeginSpan parents to the innermost open span *of the same
// session on the same thread* — work on another thread (a scheduler
// worker's solve) starts a fresh track under its own thread id, which is
// exactly how the Chrome trace-event viewer nests things anyway.
//
// Timestamps share Stopwatch's std::chrono::steady_clock so span durations
// and bench timings come from one clock source.

#ifndef SCWSC_OBS_TRACE_H_
#define SCWSC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace scwsc {
namespace obs {

/// 1-based index into the session's span table; 0 = "no span".
using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan for root spans
  std::string name;
  std::uint32_t thread = 0;   // small per-session thread index
  std::int64_t start_ns = 0;  // relative to the session epoch
  std::int64_t end_ns = -1;   // -1 while the span is still open
  bool closed() const { return end_ns >= 0; }
  double seconds() const {
    return closed() ? static_cast<double>(end_ns - start_ns) * 1e-9 : 0.0;
  }
};

/// A point-in-time marker (RunContext trip, incumbent update) attached to
/// the span that was open on the recording thread, or kNoSpan.
struct EventRecord {
  SpanId span = kNoSpan;
  std::string name;
  std::uint32_t thread = 0;
  std::int64_t ts_ns = 0;
};

class TraceSession {
 public:
  TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // --- recording (thread-safe; prefer the RAII Span wrapper) --------------

  /// Opens a span parented to this thread's innermost open span of this
  /// session (kNoSpan parent when there is none).
  SpanId BeginSpan(std::string_view name);
  void EndSpan(SpanId id);

  /// Records an event on this thread's innermost open span of this session.
  void AddEvent(std::string_view name);
  /// Records an event on an explicit span.
  void AddEventOn(SpanId span, std::string_view name);

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  // --- inspection (snapshot copies; safe while recording continues) -------

  std::vector<SpanRecord> spans() const;
  std::vector<EventRecord> events() const;

  /// Total seconds across every *closed* span named `name`.
  double SpanSeconds(std::string_view name) const;

  /// (name, total closed seconds) aggregated per span name, sorted by name.
  /// This is the per-phase breakdown the bench JSON rows embed.
  std::vector<std::pair<std::string, double>> PhaseTotals() const;

 private:
  std::uint32_t ThreadIndexLocked();

  const std::int64_t epoch_ns_;  // steady-clock origin of all timestamps
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<EventRecord> events_;
  std::unordered_map<std::thread::id, std::uint32_t> thread_index_;
  MetricRegistry metrics_;
};

/// RAII span handle. With a null session every method is a no-op behind one
/// pointer branch, so instrumentation stays in place in hot paths.
class Span {
 public:
  Span() = default;
  Span(TraceSession* session, std::string_view name) : session_(session) {
    if (session_ != nullptr) id_ = session_->BeginSpan(name);
  }
  Span(Span&& other) noexcept
      : session_(other.session_), id_(other.id_) {
    other.session_ = nullptr;
    other.id_ = kNoSpan;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      session_ = other.session_;
      id_ = other.id_;
      other.session_ = nullptr;
      other.id_ = kNoSpan;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  /// Closes the span early (idempotent).
  void End() {
    if (session_ != nullptr) {
      session_->EndSpan(id_);
      session_ = nullptr;
      id_ = kNoSpan;
    }
  }

  /// Records an event on this span.
  void Event(std::string_view name) {
    if (session_ != nullptr) session_->AddEventOn(id_, name);
  }

  TraceSession* session() const { return session_; }
  SpanId id() const { return id_; }

 private:
  TraceSession* session_ = nullptr;
  SpanId id_ = kNoSpan;
};

}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_TRACE_H_
