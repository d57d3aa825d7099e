#include "src/obs/export.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/obs/json_util.h"

namespace scwsc {
namespace obs {

using internal::AppendJsonEscaped;
using internal::JsonNumber;
using internal::TraceTs;
using internal::WriteFileOrStatus;

std::string ToChromeTraceJson(const TraceSession& session) {
  const std::vector<SpanRecord> spans = session.spans();
  const std::vector<EventRecord> events = session.events();

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  const auto value_args = [&](double value) {
    if (value != 0.0) out += ",\"args\":{\"v\":" + JsonNumber(value) + "}";
  };

  std::uint32_t max_thread = 0;
  for (const SpanRecord& s : spans) max_thread = std::max(max_thread, s.thread);
  for (const EventRecord& e : events) {
    max_thread = std::max(max_thread, e.thread);
  }
  if (!spans.empty() || !events.empty()) {
    for (std::uint32_t t = 0; t <= max_thread; ++t) {
      comma();
      out += StrFormat(
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
          "\"args\":{\"name\":\"scwsc-%u\"}}",
          t, t);
    }
  }

  for (const SpanRecord& s : spans) {
    comma();
    out += "{\"name\":\"";
    AppendJsonEscaped(s.name, &out);
    out += "\",\"cat\":\"scwsc\"";
    if (s.closed()) {
      out += StrFormat(",\"ph\":\"X\",\"ts\":%s,\"dur\":%s",
                       TraceTs(s.start_ns).c_str(),
                       TraceTs(s.end_ns - s.start_ns).c_str());
    } else {
      out += StrFormat(",\"ph\":\"B\",\"ts\":%s", TraceTs(s.start_ns).c_str());
    }
    value_args(s.value);
    out += StrFormat(",\"pid\":1,\"tid\":%u}", s.thread);
  }

  for (const EventRecord& e : events) {
    comma();
    out += "{\"name\":\"";
    AppendJsonEscaped(e.name, &out);
    out += StrFormat("\",\"cat\":\"scwsc\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s",
                     TraceTs(e.ts_ns).c_str());
    value_args(e.value);
    out += StrFormat(",\"pid\":1,\"tid\":%u}", e.thread);
  }

  out += "]}";
  return out;
}

namespace {

// The quantiles every sketch export reports, matching the telemetry JSONL
// schema in docs/observability.md.
constexpr struct {
  double q;
  const char* label;  // JSONL/CSV key
  const char* prom;   // Prometheus quantile label value
} kSketchQuantiles[] = {{0.5, "p50", "0.5"},
                        {0.9, "p90", "0.9"},
                        {0.99, "p99", "0.99"},
                        {0.999, "p999", "0.999"}};

}  // namespace

std::string ToMetricsJson(const MetricRegistry& registry) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.CounterValues()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(name, &out);
    out += StrFormat("\":%llu", static_cast<unsigned long long>(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(name, &out);
    out += "\":" + JsonNumber(value);
  }
  out += "},\"sketches\":{";
  first = true;
  for (const auto& [name, sketch] : registry.SketchValues()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(name, &out);
    out += StrFormat("\":{\"count\":%llu,\"sum\":%s,\"min\":%s,\"max\":%s",
                     static_cast<unsigned long long>(sketch.count()),
                     JsonNumber(sketch.sum()).c_str(),
                     JsonNumber(sketch.min()).c_str(),
                     JsonNumber(sketch.max()).c_str());
    for (const auto& sq : kSketchQuantiles) {
      out += StrFormat(",\"%s\":%s", sq.label,
                       JsonNumber(sketch.Quantile(sq.q)).c_str());
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string ToMetricsCsv(const MetricRegistry& registry) {
  std::string out = "kind,name,value\n";
  for (const auto& [name, value] : registry.CounterValues()) {
    out += StrFormat("counter,%s,%llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    out += StrFormat("gauge,%s,%.17g\n", name.c_str(), value);
  }
  for (const auto& [name, sketch] : registry.SketchValues()) {
    for (const auto& sq : kSketchQuantiles) {
      out += StrFormat("sketch,%s.%s,%.17g\n", name.c_str(), sq.label,
                       sketch.Quantile(sq.q));
    }
    out += StrFormat("sketch,%s.sum,%.17g\n", name.c_str(), sketch.sum());
    out += StrFormat("sketch,%s.count,%llu\n", name.c_str(),
                     static_cast<unsigned long long>(sketch.count()));
  }
  return out;
}

namespace {

/// Metric names are dotted paths; Prometheus names allow [a-zA-Z0-9_:].
/// Everything else becomes '_', and every name gets a "scwsc_" prefix.
std::string PrometheusName(std::string_view name) {
  std::string out = "scwsc_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Splits "family#member" sketch names; member is empty for plain names.
std::pair<std::string, std::string> SplitSketchFamily(const std::string& name) {
  const std::size_t hash = name.find('#');
  if (hash == std::string::npos) return {name, std::string()};
  return {name.substr(0, hash), name.substr(hash + 1)};
}

}  // namespace

std::string ToPrometheusText(const MetricRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.CounterValues()) {
    const std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s counter\n%s %llu\n", prom.c_str(), prom.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    const std::string prom = PrometheusName(name);
    out += StrFormat("# TYPE %s gauge\n%s %s\n", prom.c_str(), prom.c_str(),
                     JsonNumber(value).c_str());
  }
  std::string last_family;
  for (const auto& [name, sketch] : registry.SketchValues()) {
    const auto [family, member] = SplitSketchFamily(name);
    const std::string prom = PrometheusName(family);
    if (family != last_family) {
      out += StrFormat("# TYPE %s summary\n", prom.c_str());
      last_family = family;
    }
    const std::string member_label =
        member.empty() ? std::string()
                       : StrFormat("member=\"%s\",", member.c_str());
    for (const auto& sq : kSketchQuantiles) {
      out += StrFormat("%s{%squantile=\"%s\"} %s\n", prom.c_str(),
                       member_label.c_str(), sq.prom,
                       JsonNumber(sketch.Quantile(sq.q)).c_str());
    }
    const std::string suffix_labels =
        member.empty() ? std::string()
                       : StrFormat("{member=\"%s\"}", member.c_str());
    out += StrFormat("%s_sum%s %s\n%s_count%s %llu\n", prom.c_str(),
                     suffix_labels.c_str(), JsonNumber(sketch.sum()).c_str(),
                     prom.c_str(), suffix_labels.c_str(),
                     static_cast<unsigned long long>(sketch.count()));
  }
  return out;
}

Status WriteChromeTraceJson(const TraceSession& session,
                            const std::string& path) {
  return WriteFileOrStatus(path, ToChromeTraceJson(session));
}

Status WriteMetricsFile(const MetricRegistry& registry,
                        const std::string& path) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  return WriteFileOrStatus(path,
                           csv ? ToMetricsCsv(registry) : ToMetricsJson(registry));
}

}  // namespace obs
}  // namespace scwsc
