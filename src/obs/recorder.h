// Always-on flight recorder: per-thread ring buffers that retain the most
// recent spans and instants at bounded memory, dumped as Chrome-trace JSON
// on demand. Where TraceSession (obs/trace.h) is opt-in and unbounded — a
// per-request tool you attach when you already know which solve to watch —
// the flight recorder is the opposite: it is always recording everything
// cheaply, so when an SLO trips or a breaker opens, the seconds leading up
// to the incident can be dumped after the fact.
//
// Recording never blocks and never allocates: each thread owns a
// fixed-capacity ring of 64-byte POD entries guarded by a mutex the writer
// only try_locks. Uncontended (the steady state — the only other party is a
// dump, which is rare) that is a single atomic exchange; when a dump does
// hold the ring, the event is dropped and counted instead of making the
// serve path wait. This deliberately trades a seqlock's never-drop property
// for being exactly checkable under ThreadSanitizer, which the CI TSan job
// runs these rings under.

#ifndef SCWSC_OBS_RECORDER_H_
#define SCWSC_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/result.h"

namespace scwsc {
namespace obs {

struct RecorderOptions {
  /// Entries retained per thread (64 bytes each). Rounded up to a power of
  /// two so the ring index is a mask, not a division, on the record path.
  /// The default bounds each thread's ring at 256 KiB.
  std::size_t ring_capacity = 4096;
  /// DumpChromeTraceJson(0) keeps events whose end time falls within this
  /// many seconds of the dump.
  double retention_seconds = 30.0;
};

/// One process-wide (or per-test) flight recorder. All members are
/// thread-safe; recording threads register a ring lazily on first use.
class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderOptions options = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder (never destroyed). The serve layer records
  /// into this instance.
  static FlightRecorder& Global();

  /// Disabling makes RecordInstant/RecordComplete single-load no-ops;
  /// benches use this to measure the recorder's own overhead.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Steady-clock nanoseconds since this recorder's construction; the time
  /// base of every recorded entry.
  std::int64_t NowNs() const;

  /// Records a thread-scoped instant ("i" in the trace). `value` is kept in
  /// the event's args. Names longer than the entry's inline capacity (38
  /// bytes) are truncated.
  void RecordInstant(std::string_view name, double value = 0.0);

  /// Records a closed span ("X" in the trace) from start_ns to end_ns
  /// (NowNs() values). A non-zero `value` rides in the event's args — the
  /// serve path uses it for queue wait, which keeps the hot path at one
  /// event per job instead of a span plus an instant. RecorderScope is the
  /// RAII wrapper over this.
  void RecordComplete(std::string_view name, std::int64_t start_ns,
                      std::int64_t end_ns, double value = 0.0);

  /// Chrome trace-event JSON of the retained entries whose end time falls
  /// within the last `last_seconds` (<= 0 means options.retention_seconds).
  std::string DumpChromeTraceJson(double last_seconds = 0.0) const;

  /// Writes DumpChromeTraceJson(last_seconds) to `path`.
  Status DumpToFile(const std::string& path, double last_seconds = 0.0) const;

  /// Events accepted into rings so far (old entries overwritten in place
  /// still count once).
  std::uint64_t recorded() const;
  /// Events dropped because a concurrent dump held the thread's ring.
  std::uint64_t dropped() const;
  /// Threads that have registered a ring.
  std::size_t num_threads() const;

  const RecorderOptions& options() const { return options_; }

 private:
  struct Ring;

  Ring* RingForThisThread();

  const RecorderOptions options_;
  const std::uint64_t instance_id_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex registry_mu_;
  std::map<std::thread::id, std::unique_ptr<Ring>> rings_;
};

/// RAII complete-event: records name with the scope's duration into the
/// recorder on destruction. Default-constructed scopes are inert; move
/// assignment (mirroring obs::Span) lets a scope be armed conditionally.
class RecorderScope {
 public:
  RecorderScope() = default;
  /// `recorder` == nullptr records into FlightRecorder::Global().
  explicit RecorderScope(std::string_view name,
                         FlightRecorder* recorder = nullptr);
  /// Two-part name (`prefix` + `suffix`), concatenated into the scope's
  /// inline buffer — no heap allocation on the hot path.
  RecorderScope(std::string_view prefix, std::string_view suffix,
                FlightRecorder* recorder = nullptr);
  ~RecorderScope();
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;
  RecorderScope(RecorderScope&& other) noexcept;
  RecorderScope& operator=(RecorderScope&& other) noexcept;

  /// Attaches a value to the recorded span's args (see RecordComplete).
  void set_value(double value) { value_ = value; }

 private:
  void Finish();
  void SetName(std::string_view prefix, std::string_view suffix);

  FlightRecorder* recorder_ = nullptr;
  std::int64_t start_ns_ = 0;
  double value_ = 0.0;
  // Matches the ring entry's inline name capacity; longer names truncate at
  // record time anyway, so nothing is lost by truncating here.
  char name_[40];
  std::uint8_t name_len_ = 0;
};

}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_RECORDER_H_
