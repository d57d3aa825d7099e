// Mergeable log-bucketed quantile sketch (DDSketch-style) for latency
// distributions. Fixed-bucket histograms answer "how many solves took
// between 1ms and 10ms", but their quantile estimates are only as good as
// the bucket layout, and sketches from different solvers or tenants cannot
// be combined unless every layout matches exactly. The log-bucketed sketch
// fixes both: bucket i holds values in (gamma^(i-1), gamma^i] with
// gamma = (1 + alpha) / (1 - alpha), so any quantile estimate is within a
// relative error of alpha of the true sample quantile, and two sketches
// with the same alpha merge by adding bucket counts — the merged sketch is
// exactly the sketch of the concatenated samples.
//
// The serve layer keeps one sketch per solver ("serve.latency_seconds#cwsc");
// the telemetry pump merges the members of each '#'-family into aggregate
// p50/p90/p99/p999 — see docs/observability.md.

#ifndef SCWSC_OBS_SKETCH_H_
#define SCWSC_OBS_SKETCH_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "src/common/result.h"

namespace scwsc {
namespace obs {

/// Quantile sketch with bounded relative error. Not thread-safe (that is
/// MetricSketch's job); cheap to copy for snapshots and merging.
class QuantileSketch {
 public:
  static constexpr double kDefaultRelativeError = 0.01;
  /// Values at or below this are folded into an exact zero bucket. Latencies
  /// live many orders of magnitude above it.
  static constexpr double kMinTrackable = 1e-12;

  /// `relative_error` (alpha) must lie in (0, 1); quantile estimates for
  /// values above kMinTrackable satisfy |estimate - exact| <= alpha * exact.
  explicit QuantileSketch(double relative_error = kDefaultRelativeError);

  /// Adds one sample. Values <= kMinTrackable (including all non-positive
  /// values) land in the zero bucket and are reported as 0.0 by Quantile().
  void Observe(double v);

  /// Adds `other`'s samples into this sketch. The two sketches must have
  /// been built with the same relative error.
  Status Merge(const QuantileSketch& other);

  /// The sample quantile estimate for q in [0, 1] (clamped), using the same
  /// nearest-rank convention as the serve benches: rank = round(q*(n-1)).
  /// Returns 0.0 on an empty sketch.
  double Quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double relative_error() const { return relative_error_; }
  std::uint64_t zero_count() const { return zero_count_; }
  /// Log-bucket index -> count, ascending. Exposed for exporters.
  const std::map<int, std::uint64_t>& buckets() const { return buckets_; }

 private:
  int BucketKey(double v) const;
  double BucketValue(int key) const;

  double relative_error_;
  double gamma_;
  double inv_log_gamma_;
  std::map<int, std::uint64_t> buckets_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Registry instrument wrapping a QuantileSketch behind a mutex. Observe()
/// is a short critical section (one map operation); snapshot() copies the
/// sketch so exporters never hold the lock while rendering.
class MetricSketch {
 public:
  explicit MetricSketch(double relative_error)
      : sketch_(relative_error) {}

  void Observe(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    sketch_.Observe(v);
  }

  QuantileSketch snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sketch_;
  }

 private:
  mutable std::mutex mu_;
  QuantileSketch sketch_;
};

}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_SKETCH_H_
