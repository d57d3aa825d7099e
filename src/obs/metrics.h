// Thread-safe metric registry: named counters, gauges and quantile
// sketches. This is the generalization of api::SolveCounters — the fixed
// struct keeps its role as the typed per-solve snapshot in the Solver API,
// while the registry lets any layer (benefit engine, simplex pivots, lattice
// pruning) publish instrumentation without widening that struct.
//
// Usage contract: `counter()`/`gauge()`/`sketch()` get-or-create under a
// mutex and return a reference that stays valid for the registry's lifetime
// (instruments are heap-allocated nodes); the returned instruments are
// lock-free atomics, so hot loops resolve the name once and then update
// without synchronization. Names are dotted lowercase paths
// ("engine.celf_hits", "solve.cwsc.sets_considered") — see
// docs/observability.md for the naming scheme.

#ifndef SCWSC_OBS_METRICS_H_
#define SCWSC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/sketch.h"

namespace scwsc {
namespace obs {

/// Monotonically increasing count of events (picks, pivots, cache hits).
class MetricCounter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (final budget, LP lower bound, seconds).
class MetricGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create. The reference stays valid for the registry's lifetime.
  MetricCounter& counter(const std::string& name);
  MetricGauge& gauge(const std::string& name);
  /// Mergeable quantile sketch (see obs/sketch.h). `relative_error` is used
  /// only on first creation. A '#' in the name marks a family member
  /// ("serve.latency_seconds#cwsc"): the telemetry pump merges all members
  /// of a family into one aggregate distribution.
  MetricSketch& sketch(
      const std::string& name,
      double relative_error = QuantileSketch::kDefaultRelativeError);

  /// Snapshot accessors, sorted by name. Values read with relaxed atomics —
  /// call after the recording threads have quiesced for exact totals.
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, QuantileSketch>> SketchValues() const;

  /// Convenience for tests: the counter's value, or 0 when absent.
  std::uint64_t CounterValue(const std::string& name) const;
  /// The gauge's value, or 0.0 when absent.
  double GaugeValue(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
  std::map<std::string, std::unique_ptr<MetricSketch>> sketches_;
};

}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_METRICS_H_
