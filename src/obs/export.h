// Exporters for a TraceSession: Chrome trace-event JSON (loads directly in
// Perfetto or chrome://tracing) and a flat metrics dump as JSON or CSV.
// Rendering is plain string building — the repo has no JSON dependency and
// the trace-event format only needs objects, arrays, numbers and escaped
// strings.

#ifndef SCWSC_OBS_EXPORT_H_
#define SCWSC_OBS_EXPORT_H_

#include <string>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace obs {

/// The session's spans and events in Chrome trace-event format: closed
/// spans as complete ("X") events, still-open spans as begin ("B") events,
/// span events as thread-scoped instants ("i"), plus thread-name metadata.
/// A record's non-zero value rides in its args as "v".
std::string ToChromeTraceJson(const TraceSession& session);

/// The registry's counters, gauges and sketches as one JSON object.
std::string ToMetricsJson(const MetricRegistry& registry);

/// The same dump as `kind,name,value` CSV rows (one row per sketch
/// quantile, sum and count).
std::string ToMetricsCsv(const MetricRegistry& registry);

/// The registry in the Prometheus text exposition format: counters and
/// gauges as plain samples, sketches as summaries with quantile labels.
/// Sketch family members
/// ("serve.latency_seconds#cwsc") become a `member` label on the family
/// metric. All names are prefixed "scwsc_" with dots mapped to underscores.
std::string ToPrometheusText(const MetricRegistry& registry);

/// Writes ToChromeTraceJson(session) to `path`.
Status WriteChromeTraceJson(const TraceSession& session,
                            const std::string& path);

/// Writes the metrics dump to `path`; a ".csv" extension selects the CSV
/// form, anything else gets JSON.
Status WriteMetricsFile(const MetricRegistry& registry,
                        const std::string& path);

}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_EXPORT_H_
