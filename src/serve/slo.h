// Declarative SLO rules over the serving metrics, evaluated every telemetry
// tick. A rule is one line of text — "p99_latency_ms<=50",
// "error_rate<=0.05", "queue_depth<=100" — parsed once at startup; the
// telemetry pump assembles an SloSample per tick (merged latency sketch,
// per-tick completion deltas, the queue-depth gauge) and EvaluateSlos
// returns the rules the sample violates. The pump turns each violation into
// a `serve.slo.violations` bump, a warn log and a dump of the scheduler's
// serve-path history — see docs/observability.md for the rule syntax.

#ifndef SCWSC_SERVE_SLO_H_
#define SCWSC_SERVE_SLO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/sketch.h"

namespace scwsc {
namespace serve {

/// What a rule constrains.
enum class SloMetric {
  kLatencyQuantile,  // p50_/p90_/p99_/p999_latency_ms: merged sketch quantile
  kErrorRate,        // failed / (completed + failed), per tick
  kQueueDepth,       // serve.queue.depth gauge
};

enum class SloOp {
  kAtMost,  // "<=" or "<": violated when observed > threshold
  kEquals,  // "==": violated when observed != threshold
};

struct SloRule {
  SloMetric metric = SloMetric::kLatencyQuantile;
  SloOp op = SloOp::kAtMost;
  double quantile = 0.99;   // only for kLatencyQuantile
  double threshold = 0.0;   // milliseconds for latency rules
  std::string text;         // original spelling, echoed in logs and reports
  /// Tenant scope: empty = the aggregate sample; otherwise the pump
  /// evaluates this rule against that tenant's own latency sketch
  /// (serve.tenant.latency_seconds#<tenant>) and completion deltas
  /// (serve.tenant.<tenant>.completed/.failed). Spelled "tenant=NAME:rule".
  std::string tenant;
};

/// Parses one rule. Accepted metrics: p50_latency_ms, p90_latency_ms,
/// p99_latency_ms, p999_latency_ms, error_rate, queue_depth; operators:
/// "<=", "<" (both at-most) and "==". Whitespace is ignored.
/// A "tenant=NAME:" prefix scopes the rule to one tenant's metrics, e.g.
/// "tenant=acme:p99_latency_ms<=50".
Result<SloRule> ParseSloRule(const std::string& text);

/// ParseSloRule over a list; fails on the first bad rule.
Result<std::vector<SloRule>> ParseSloRules(
    const std::vector<std::string>& texts);

/// One tick's worth of evidence, assembled by the telemetry pump.
struct SloSample {
  /// Merged latency sketch (seconds) across all solver members; nullptr or
  /// an empty sketch means no latency data yet, so latency rules pass.
  const obs::QuantileSketch* latency = nullptr;
  /// Jobs that completed / failed since the previous tick. Error-rate rules
  /// pass when the tick saw no traffic.
  std::uint64_t completed_delta = 0;
  std::uint64_t failed_delta = 0;
  double queue_depth = 0.0;
};

struct SloViolation {
  SloRule rule;
  double observed = 0.0;  // in the rule's own unit (ms for latency rules)
};

/// The subset of `rules` that `sample` violates, in rule order.
std::vector<SloViolation> EvaluateSlos(const std::vector<SloRule>& rules,
                                       const SloSample& sample);

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_SLO_H_
