// Hierarchical trace spans with steady-clock timestamps, thread-id tagging
// and point-in-time events — the per-phase view the paper's experimental
// section (budget rounds, per-level picks, lattice pruning) needs and the
// single wall-clock number in SolveResult cannot give. This is the one span
// store of the library: solver phases, the serve path's per-job spans and
// the SLO incident history are all TraceSessions.
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
// Storage: each recording thread appends to its own log under its own
// mutex, which only readers (spans(), events(), an export) contend for, so
// concurrent scheduler workers never serialize on one lock. (On a warm,
// cache-served 4-worker scheduler on a shared 4-core VM, one session-wide
// mutex cost the SLO history about 10% of throughput; these logs, 3%.)
//
// Retention: a session built with a record bound keeps at most that many
// closed spans and events per recording thread, dropping that thread's
// oldest closed record first. Open spans are held apart and never dropped,
// so a long solve opened before thousands of later records still appears
// once it closes. Without a bound (the default) every record is kept.
//
// Timestamps share Stopwatch's std::chrono::steady_clock so span durations
// and bench timings come from one clock source.

#ifndef SCWSC_OBS_TRACE_H_
#define SCWSC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace scwsc {
namespace obs {

/// Session-unique span id; 0 = "no span". Each recording thread numbers
/// its own spans, so opening one takes no lock shared between threads.
using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan for root spans
  std::string name;
  std::uint32_t thread = 0;   // small per-session thread index
  std::int64_t start_ns = 0;  // relative to the session epoch
  std::int64_t end_ns = -1;   // -1 while the span is still open
  /// Optional payload set when the span closes (queue wait on serve.run,
  /// queue depth on serve.enqueue); exported as args.v when non-zero.
  double value = 0.0;
  bool closed() const { return end_ns >= 0; }
  double seconds() const {
    return closed() ? static_cast<double>(end_ns - start_ns) * 1e-9 : 0.0;
  }
};

/// A point-in-time marker (RunContext trip, injected fault) attached to the
/// span that was open on the recording thread, or kNoSpan.
struct EventRecord {
  SpanId span = kNoSpan;
  std::string name;
  std::uint32_t thread = 0;
  std::int64_t ts_ns = 0;
  double value = 0.0;  // optional payload, exported as args.v when non-zero
};

class TraceSession {
 public:
  /// `max_records` bounds the closed spans plus events retained per
  /// recording thread (oldest closed record dropped first; open spans are
  /// never dropped). 0 keeps everything.
  explicit TraceSession(std::size_t max_records = 0);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // --- recording (thread-safe; prefer the RAII Span wrapper) --------------

  /// Opens a span parented to this thread's innermost open span of this
  /// session (kNoSpan parent when there is none).
  SpanId BeginSpan(std::string_view name);
  /// Closes `id`, storing `value` on it. Unknown or already closed ids are
  /// ignored.
  void EndSpan(SpanId id, double value = 0.0);

  /// Records an event on this thread's innermost open span of this session.
  void AddEvent(std::string_view name, double value = 0.0);
  /// Records an event on an explicit span.
  void AddEventOn(SpanId span, std::string_view name, double value = 0.0);

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  // --- inspection (snapshot copies; safe while recording continues) -------

  /// Retained spans, closed and open, in open order (by start time).
  std::vector<SpanRecord> spans() const;
  /// Retained events in time order.
  std::vector<EventRecord> events() const;

  /// Total seconds across every retained *closed* span named `name`.
  double SpanSeconds(std::string_view name) const;

  /// (name, total closed seconds) aggregated per span name, sorted by name.
  /// This is the per-phase breakdown the bench JSON rows embed.
  std::vector<std::pair<std::string, double>> PhaseTotals() const;

 private:
  struct ThreadLog;  // one recording thread's open spans and closed log

  /// This thread's log in this session, created on first use.
  ThreadLog& LogForThisThread();
  /// Every log so far. Logs live as long as the session, so the pointers
  /// stay valid after the registry lock is released.
  std::vector<ThreadLog*> Logs() const;

  const std::uint64_t uid_;  // process-unique; keys the per-thread log cache
  const std::int64_t epoch_ns_;  // steady-clock origin of all timestamps
  const std::size_t max_records_;
  mutable std::mutex logs_mu_;  // guards the logs_ vector, not the logs
  std::vector<std::unique_ptr<ThreadLog>> logs_;
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
      : session_(other.session_), id_(other.id_), value_(other.value_) {
    other.session_ = nullptr;
    other.id_ = kNoSpan;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      session_ = other.session_;
      id_ = other.id_;
      value_ = other.value_;
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
      session_->EndSpan(id_, value_);
      session_ = nullptr;
      id_ = kNoSpan;
    }
  }

  /// Sets the value the span is closed with (see SpanRecord::value).
  void set_value(double value) { value_ = value; }

  /// Records an event on this span.
  void Event(std::string_view name, double value = 0.0) {
    if (session_ != nullptr) session_->AddEventOn(id_, name, value);
  }

  TraceSession* session() const { return session_; }
  SpanId id() const { return id_; }

 private:
  TraceSession* session_ = nullptr;
  SpanId id_ = kNoSpan;
  double value_ = 0.0;
};

}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_TRACE_H_
