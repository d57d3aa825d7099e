#include "src/serve/slo.h"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace scwsc {
namespace serve {

namespace {

struct MetricSpec {
  const char* name;
  SloMetric metric;
  double quantile;
};

constexpr MetricSpec kMetrics[] = {
    {"p50_latency_ms", SloMetric::kLatencyQuantile, 0.5},
    {"p90_latency_ms", SloMetric::kLatencyQuantile, 0.9},
    {"p99_latency_ms", SloMetric::kLatencyQuantile, 0.99},
    {"p999_latency_ms", SloMetric::kLatencyQuantile, 0.999},
    {"error_rate", SloMetric::kErrorRate, 0.0},
    {"queue_depth", SloMetric::kQueueDepth, 0.0},
};

std::string StripWhitespace(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

std::string AcceptedMetrics() {
  std::string out;
  for (const MetricSpec& m : kMetrics) {
    if (!out.empty()) out += ", ";
    out += m.name;
  }
  return out;
}

}  // namespace

Result<SloRule> ParseSloRule(const std::string& text) {
  std::string s = StripWhitespace(text);
  std::string tenant;
  static constexpr const char kTenantPrefix[] = "tenant=";
  if (s.rfind(kTenantPrefix, 0) == 0) {
    const std::size_t colon = s.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "slo rule '" + text +
          "': tenant scope needs a ':' before the rule, e.g. "
          "\"tenant=acme:p99_latency_ms<=50\"");
    }
    tenant = s.substr(sizeof(kTenantPrefix) - 1,
                      colon - (sizeof(kTenantPrefix) - 1));
    if (tenant.empty()) {
      return Status::InvalidArgument("slo rule '" + text +
                                     "': empty tenant name");
    }
    s.erase(0, colon + 1);
  }
  std::size_t op_pos = std::string::npos;
  std::size_t op_len = 0;
  SloOp op = SloOp::kAtMost;
  if ((op_pos = s.find("<=")) != std::string::npos) {
    op_len = 2;
  } else if ((op_pos = s.find("==")) != std::string::npos) {
    op = SloOp::kEquals;
    op_len = 2;
  } else if ((op_pos = s.find('<')) != std::string::npos) {
    op_len = 1;
  } else {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': expected '<=', '<' or '=='");
  }
  const std::string metric_name = s.substr(0, op_pos);
  const std::string value_str = s.substr(op_pos + op_len);

  SloRule rule;
  rule.op = op;
  rule.text = text;
  rule.tenant = std::move(tenant);
  bool found = false;
  for (const MetricSpec& m : kMetrics) {
    if (metric_name == m.name) {
      rule.metric = m.metric;
      rule.quantile = m.quantile;
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::InvalidArgument("slo rule '" + text + "': unknown metric '" +
                                   metric_name + "' (accepted: " +
                                   AcceptedMetrics() + ")");
  }
  if (value_str.empty()) {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': missing threshold");
  }
  char* end = nullptr;
  rule.threshold = std::strtod(value_str.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': bad threshold '" + value_str + "'");
  }
  if (rule.threshold < 0.0) {
    return Status::InvalidArgument("slo rule '" + text +
                                   "': threshold must be >= 0");
  }
  return rule;
}

Result<std::vector<SloRule>> ParseSloRules(
    const std::vector<std::string>& texts) {
  std::vector<SloRule> rules;
  rules.reserve(texts.size());
  for (const std::string& text : texts) {
    Result<SloRule> rule = ParseSloRule(text);
    if (!rule.ok()) return rule.status();
    rules.push_back(std::move(rule).value());
  }
  return rules;
}

std::vector<SloViolation> EvaluateSlos(const std::vector<SloRule>& rules,
                                       const SloSample& sample) {
  std::vector<SloViolation> violations;
  for (const SloRule& rule : rules) {
    double observed = 0.0;
    bool has_data = true;
    switch (rule.metric) {
      case SloMetric::kLatencyQuantile:
        if (sample.latency == nullptr || sample.latency->count() == 0) {
          has_data = false;
          break;
        }
        observed = sample.latency->Quantile(rule.quantile) * 1e3;  // s -> ms
        break;
      case SloMetric::kErrorRate: {
        const std::uint64_t traffic =
            sample.completed_delta + sample.failed_delta;
        if (traffic == 0) {
          has_data = false;
          break;
        }
        observed = static_cast<double>(sample.failed_delta) /
                   static_cast<double>(traffic);
        break;
      }
      case SloMetric::kQueueDepth:
        observed = sample.queue_depth;
        break;
    }
    if (!has_data) continue;
    const bool violated = rule.op == SloOp::kEquals
                              ? observed != rule.threshold
                              : observed > rule.threshold;
    if (violated) violations.push_back(SloViolation{rule, observed});
  }
  return violations;
}

}  // namespace serve
}  // namespace scwsc
