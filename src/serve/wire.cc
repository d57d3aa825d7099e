#include "src/serve/wire.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/api/registry.h"

namespace scwsc {
namespace serve {
namespace {

/// Renders a JSON option value the way OptionsBag expects it spelled:
/// numbers lose a redundant ".0", bools become "true"/"false".
Result<std::string> OptionValueToString(const std::string& key,
                                        const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kString:
      return value.as_string();
    case JsonValue::Kind::kBool:
      return std::string(value.as_bool() ? "true" : "false");
    case JsonValue::Kind::kNumber: {
      const double n = value.as_number();
      JsonValue rendered(n);
      return rendered.Dump();  // integral doubles print without a fraction
    }
    default:
      return Status::InvalidArgument("option '" + key +
                                     "' must be a string, number or bool");
  }
}

/// The string in `v` when it is at most kMaxTenantLabelBytes long, or
/// InvalidArgument naming the field `what`.
Result<std::string> RequireName(const JsonValue& v, const std::string& what) {
  if (!v.is_string()) {
    return Status::InvalidArgument(what + " must be a string");
  }
  if (v.as_string().size() > kMaxTenantLabelBytes) {
    return Status::InvalidArgument(
        what + " is " + std::to_string(v.as_string().size()) +
        " bytes; the limit is " + std::to_string(kMaxTenantLabelBytes));
  }
  return v.as_string();
}

}  // namespace

Result<double> RequireNumber(const JsonValue& v, const std::string& what) {
  if (!v.is_number()) {
    return Status::InvalidArgument("field '" + what + "' must be a number");
  }
  return v.as_number();
}

ErrorInfo ErrorInfoFromStatus(const Status& status) {
  ErrorInfo error;
  error.code = std::string(StatusCodeToString(status.code()));
  error.message = std::string(status.message());
  const StatusCode code = status.code();
  error.retryable = code == StatusCode::kInternal ||
                    code == StatusCode::kUnavailable ||
                    code == StatusCode::kResourceExhausted;
  if (const RetryAfterHint* hint = status.payload<RetryAfterHint>()) {
    error.retry_after_ms = hint->ms;
  }
  return error;
}

JsonValue ErrorToJson(const ErrorInfo& error) {
  JsonObject o;
  o["code"] = JsonValue(error.code);
  o["message"] = JsonValue(error.message);
  o["retryable"] = JsonValue(error.retryable);
  if (error.retry_after_ms > 0.0) {
    o["retry_after_ms"] = JsonValue(error.retry_after_ms);
  }
  return JsonValue(std::move(o));
}

Status CheckWireVersion(const JsonValue& root, const std::string& where) {
  const JsonValue* version = root.is_object() ? root.Find("version") : nullptr;
  if (version == nullptr) {
    return Status::InvalidArgument("missing \"version\" (" + where +
                                   "); this build speaks version " +
                                   std::to_string(kWireVersion) + " only");
  }
  SCWSC_ASSIGN_OR_RETURN(
      const int v, RequireInteger<int>(*version, "version (" + where + ")",
                                       std::numeric_limits<int>::min(),
                                       std::numeric_limits<int>::max()));
  if (v == kWireVersion) return Status::OK();
  return Status::InvalidArgument(
      "unsupported wire version " + std::to_string(v) + " (" + where +
      "); this build speaks version " + std::to_string(kWireVersion) +
      " only");
}

Result<ParsedJob> ParseJobObject(const JsonValue& entry,
                                 const api::InstancePtr& instance,
                                 const std::string& at, int) {
  if (!entry.is_object()) {
    return Status::InvalidArgument(at + " is not an object");
  }
  const JsonValue* solver = entry.Find("solver");
  if (solver == nullptr || !solver->is_string()) {
    return Status::InvalidArgument(at + " needs a string \"solver\"");
  }

  ParsedJob parsed;
  api::SolveRequest::Builder builder(instance);
  std::string label;
  bool have_label = false;
  for (const auto& [key, value] : entry.as_object()) {
    if (key == "solver") {
      // handled above
    } else if (key == "k") {
      SCWSC_ASSIGN_OR_RETURN(
          std::size_t k,
          RequireInteger<std::size_t>(value, at + ".k", 0, kMaxWireInteger));
      builder.WithK(k);
    } else if (key == "coverage") {
      SCWSC_ASSIGN_OR_RETURN(double f, RequireNumber(value, at + ".coverage"));
      builder.WithCoverage(f);
    } else if (key == "options") {
      if (!value.is_object()) {
        return Status::InvalidArgument(at + ".options must be an object");
      }
      for (const auto& [opt_key, opt_value] : value.as_object()) {
        SCWSC_ASSIGN_OR_RETURN(std::string rendered,
                               OptionValueToString(opt_key, opt_value));
        builder.WithOption(opt_key, std::move(rendered));
      }
    } else if (key == "deadline_ms") {
      SCWSC_ASSIGN_OR_RETURN(
          std::int64_t ms,
          RequireInteger<std::int64_t>(value, at + ".deadline_ms", 0,
                                       kMaxWireInteger));
      builder.WithDeadline(std::chrono::milliseconds(ms));
    } else if (key == "label") {
      SCWSC_ASSIGN_OR_RETURN(label, RequireName(value, at + ".label"));
      have_label = true;
    } else if (key == "tenant") {
      SCWSC_ASSIGN_OR_RETURN(std::string tenant,
                             RequireName(value, at + ".tenant"));
      builder.WithTenant(std::move(tenant));
    } else if (key == "certify") {
      if (!value.is_bool()) {
        return Status::InvalidArgument(at + ".certify must be a bool");
      }
      builder.WithCertificate(value.as_bool());
    } else if (key == "priority") {
      SCWSC_ASSIGN_OR_RETURN(
          parsed.job.priority,
          RequireInteger<int>(value, at + ".priority",
                              std::numeric_limits<int>::min(),
                              std::numeric_limits<int>::max()));
    } else if (key == "repeat") {
      SCWSC_ASSIGN_OR_RETURN(
          parsed.repeat, RequireInteger<std::size_t>(value, at + ".repeat", 1,
                                                     kMaxWireInteger));
    } else if (key == "version" || key == "id" || key == "type" ||
               key == "snapshot") {
      // Envelope keys on the socket path; never job data, never forwarded.
    } else {
      // Forward compatibility: a newer client's keys round-trip through the
      // report/response instead of failing or silently vanishing.
      parsed.forward[key] = value;
    }
  }
  if (have_label) builder.WithLabel(std::move(label));
  SCWSC_ASSIGN_OR_RETURN(parsed.job.request, builder.Build());
  parsed.job.solver = solver->as_string();
  return parsed;
}

Result<api::SnapshotDelta> ParseDeltaObject(const JsonValue& entry,
                                            const std::string& at) {
  if (!entry.is_object()) {
    return Status::InvalidArgument(at + " is not an object");
  }
  api::SnapshotDelta delta;
  if (const JsonValue* rows = entry.Find("append_rows")) {
    if (!rows->is_array()) {
      return Status::InvalidArgument(at + ".append_rows must be an array");
    }
    for (std::size_t i = 0; i < rows->as_array().size(); ++i) {
      const JsonValue& row = rows->as_array()[i];
      const std::string where = at + ".append_rows[" + std::to_string(i) + "]";
      if (!row.is_object()) {
        return Status::InvalidArgument(where + " must be an object");
      }
      api::SnapshotDelta::RowAppend append;
      const JsonValue* values = row.Find("values");
      if (values == nullptr || !values->is_array()) {
        return Status::InvalidArgument(where + " needs a \"values\" array");
      }
      for (const JsonValue& v : values->as_array()) {
        if (!v.is_string()) {
          return Status::InvalidArgument(where + ".values must be strings");
        }
        append.values.push_back(v.as_string());
      }
      if (const JsonValue* measure = row.Find("measure")) {
        SCWSC_ASSIGN_OR_RETURN(append.measure,
                               RequireNumber(*measure, where + ".measure"));
      }
      delta.append_rows.push_back(std::move(append));
    }
  }
  if (const JsonValue* rows = entry.Find("retract_rows")) {
    if (!rows->is_array()) {
      return Status::InvalidArgument(at + ".retract_rows must be an array");
    }
    for (const JsonValue& v : rows->as_array()) {
      SCWSC_ASSIGN_OR_RETURN(
          std::size_t row, RequireInteger<std::size_t>(
                               v, at + ".retract_rows[]", 0, kMaxWireInteger));
      delta.retract_rows.push_back(row);
    }
  }
  if (const JsonValue* sets = entry.Find("add_sets")) {
    if (!sets->is_array()) {
      return Status::InvalidArgument(at + ".add_sets must be an array");
    }
    for (std::size_t i = 0; i < sets->as_array().size(); ++i) {
      const JsonValue& set = sets->as_array()[i];
      const std::string where = at + ".add_sets[" + std::to_string(i) + "]";
      if (!set.is_object()) {
        return Status::InvalidArgument(where + " must be an object");
      }
      api::SnapshotDelta::SetAdd add;
      const JsonValue* elements = set.Find("elements");
      if (elements == nullptr || !elements->is_array()) {
        return Status::InvalidArgument(where + " needs an \"elements\" array");
      }
      for (const JsonValue& e : elements->as_array()) {
        SCWSC_ASSIGN_OR_RETURN(
            ElementId element,
            RequireInteger<ElementId>(e, where + ".elements[]", 0,
                                      std::numeric_limits<ElementId>::max()));
        add.elements.push_back(element);
      }
      if (const JsonValue* cost = set.Find("cost")) {
        SCWSC_ASSIGN_OR_RETURN(add.cost,
                               RequireNumber(*cost, where + ".cost"));
      }
      if (const JsonValue* label = set.Find("label")) {
        if (!label->is_string()) {
          return Status::InvalidArgument(where + ".label must be a string");
        }
        add.label = label->as_string();
      }
      delta.add_sets.push_back(std::move(add));
    }
  }
  if (const JsonValue* sets = entry.Find("remove_sets")) {
    if (!sets->is_array()) {
      return Status::InvalidArgument(at + ".remove_sets must be an array");
    }
    for (const JsonValue& v : sets->as_array()) {
      SCWSC_ASSIGN_OR_RETURN(
          SetId id, RequireInteger<SetId>(v, at + ".remove_sets[]", 0,
                                          std::numeric_limits<SetId>::max()));
      delta.remove_sets.push_back(id);
    }
  }
  return delta;
}

JsonValue DeltaStatsToJson(const api::DeltaStats& stats,
                           std::uint64_t content_hash) {
  char hex[2 + 16 + 1];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(content_hash));
  JsonObject o;
  o["child_version"] = JsonValue(stats.child_version);
  o["content_hash"] = JsonValue(std::string(hex));
  o["rows_appended"] = JsonValue(stats.rows_appended);
  o["rows_retracted"] = JsonValue(stats.rows_retracted);
  o["sets_added"] = JsonValue(stats.sets_added);
  o["sets_removed"] = JsonValue(stats.sets_removed);
  return JsonValue(std::move(o));
}

void AddResultFields(const api::SolveResult& result, JsonObject& out) {
  out["total_cost"] = JsonValue(result.total_cost);
  out["covered"] = JsonValue(result.covered);
  out["num_sets"] = JsonValue(result.labels.size());
  if (result.certificate.has_value()) {
    out["lower_bound"] = JsonValue(result.certificate->lower_bound);
    out["certified_ratio"] = JsonValue(result.certificate->certified_ratio);
  }
  JsonArray labels;
  for (const std::string& label : result.labels) {
    labels.push_back(JsonValue(label));
  }
  out["selection"] = JsonValue(std::move(labels));
}

std::string CanonicalSolverName(const std::string& name) {
  const api::SolverInfo* info = api::SolverRegistry::Global().Find(name);
  return info != nullptr ? info->name : name;
}

JsonValue SolverListToJson() {
  JsonArray solvers;
  for (const api::SolverInfo& info : api::SolverRegistry::Global().List()) {
    JsonObject entry;
    entry["name"] = JsonValue(info.name);
    entry["summary"] = JsonValue(info.summary);
    entry["capabilities"] =
        JsonValue(api::CapabilitiesToString(info.capabilities));
    JsonArray options;
    for (const api::OptionSpec& opt : info.options) {
      JsonObject spec;
      spec["name"] = JsonValue(opt.name);
      spec["type"] = JsonValue(std::string(api::OptionTypeToString(opt.type)));
      spec["default"] = JsonValue(opt.default_value);
      spec["required"] = JsonValue(opt.required);
      spec["help"] = JsonValue(opt.help);
      options.push_back(JsonValue(std::move(spec)));
    }
    entry["options"] = JsonValue(std::move(options));
    solvers.push_back(JsonValue(std::move(entry)));
  }
  JsonObject root;
  root["solvers"] = JsonValue(std::move(solvers));
  return JsonValue(std::move(root));
}

}  // namespace serve
}  // namespace scwsc
