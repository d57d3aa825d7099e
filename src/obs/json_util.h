// Shared string-building helpers for the obs exporters (export.cc and the
// telemetry renderers). The repo has no JSON dependency; the
// trace-event and metrics formats only need objects, arrays, numbers and
// escaped strings.

#ifndef SCWSC_OBS_JSON_UTIL_H_
#define SCWSC_OBS_JSON_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace scwsc {
namespace obs {
namespace internal {

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters).
void AppendJsonEscaped(std::string_view s, std::string* out);

/// A JSON number literal: finite doubles round-trip via %.17g, non-finite
/// values (not representable in JSON) degrade to null.
std::string JsonNumber(double v);

/// Nanoseconds to the trace-event format's microsecond unit.
std::string TraceTs(std::int64_t ns);

/// Writes `body` to `path`, reporting open and short-write failures.
Status WriteFileOrStatus(const std::string& path, const std::string& body);

}  // namespace internal
}  // namespace obs
}  // namespace scwsc

#endif  // SCWSC_OBS_JSON_UTIL_H_
