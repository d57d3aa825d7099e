// TelemetryPump: the background thread that turns the MetricRegistry's
// point-in-time state into a continuous record. Each tick it (1) invokes an
// optional sampler so the owner can refresh gauges (the scheduler samples
// queue depth and per-priority wait), (2) snapshots counters, gauges and
// sketches, diffing counters against the previous tick, (3) merges sketch
// '#'-families into aggregate quantiles, (4) evaluates the configured SLO
// rules (serve/slo.h) — a violation bumps `serve.slo.violations`, logs a
// warning and writes the history session (the scheduler's serve-path spans
// and events) as Chrome-trace JSON — and (5) appends one JSON object to the
// JSONL time series and rewrites the Prometheus text exposition.
//
// The pump is owned by SolveScheduler when SchedulerOptions::telemetry is
// configured; TickNow() lets tests and the batch runner force a final tick
// so reports observe the last interval.

#ifndef SCWSC_SERVE_TELEMETRY_H_
#define SCWSC_SERVE_TELEMETRY_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/slo.h"

namespace scwsc {
namespace serve {

struct TelemetryOptions {
  /// Seconds between ticks; <= 0 disables the background thread (TickNow()
  /// still works).
  double interval_seconds = 1.0;
  /// One JSON object per tick appended here; empty = no JSONL output.
  std::string jsonl_path;
  /// Prometheus text exposition rewritten each tick; empty = no exposition.
  /// The CLI derives this as `<jsonl_path>.prom`.
  std::string prom_path;
  /// SLO rules evaluated each tick (parse with ParseSloRules).
  std::vector<SloRule> slo_rules;
  /// History dump target on an SLO violation. Empty derives
  /// `<jsonl_path>.slo_trace.json` (or "slo_trace.json" with no JSONL).
  std::string slo_dump_path;
  /// At most this many dump files per pump; later violating ticks only
  /// count and log. Dump k > 1 is written to `<slo_dump_path>.<k>`.
  std::size_t max_slo_dumps = 4;

  bool configured() const {
    return !jsonl_path.empty() || !prom_path.empty() || !slo_rules.empty();
  }
};

class TelemetryPump {
 public:
  /// `registry` and `history` must outlive the pump. Starts the tick thread
  /// when options.interval_seconds > 0 and options.configured(). A violating
  /// tick dumps `history`; without one it only counts and logs.
  TelemetryPump(obs::MetricRegistry* registry, TelemetryOptions options,
                const obs::TraceSession* history = nullptr);
  ~TelemetryPump();
  TelemetryPump(const TelemetryPump&) = delete;
  TelemetryPump& operator=(const TelemetryPump&) = delete;

  /// Installs the pre-snapshot hook run at the start of every tick (the
  /// scheduler refreshes its queue gauges here). Safe to call while the
  /// tick thread runs.
  void SetTickSampler(std::function<void()> sampler);

  /// Stops the tick thread (idempotent) and runs one final tick so the
  /// last interval is recorded and its SLOs evaluated.
  void Stop();

  /// One synchronous tick; serialized against the background thread.
  void TickNow();

  std::uint64_t ticks() const;
  /// Total SLO rule violations observed (also the `serve.slo.violations`
  /// counter in the registry).
  std::uint64_t violations() const;
  /// History dump files written by violating ticks, in order.
  std::vector<std::string> dump_paths() const;
  /// First output error (JSONL append, exposition write, dump write), or
  /// OK. Output errors never stop the pump.
  Status last_error() const;

  const TelemetryOptions& options() const { return options_; }

 private:
  void Loop();
  void Tick();  // requires tick_mu_

  obs::MetricRegistry* const registry_;
  const TelemetryOptions options_;
  const obs::TraceSession* const history_;
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex tick_mu_;  // serializes ticks; guards everything below
  std::function<void()> sampler_;
  std::map<std::string, std::uint64_t> prev_counters_;
  std::uint64_t prev_completed_ = 0;
  std::uint64_t prev_failed_ = 0;
  std::uint64_t tick_count_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<std::string> dump_paths_;
  Status error_ = Status::OK();

  std::mutex stop_mu_;  // guards stop_ for the cv; never nests tick_mu_
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool joined_ = false;
  std::thread thread_;
};

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_TELEMETRY_H_
