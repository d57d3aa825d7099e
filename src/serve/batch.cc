#include "src/serve/batch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/stopwatch.h"
#include "src/serve/wire.h"

namespace scwsc {
namespace serve {
namespace {

/// Latency percentile over a sorted sample (nearest-rank).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(std::lround(rank))];
}

}  // namespace

void FaultSpec::ApplyTo(FaultPlan& plan) const {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    const double p = probabilities[static_cast<std::size_t>(i)];
    if (p > 0.0) plan.Arm(static_cast<FaultPoint>(i), p);
  }
  plan.set_solver_delay_ms(solver_delay_ms);
}

namespace {

Result<FaultSpec> ParseFaultSpec(const JsonValue& value) {
  FaultSpec spec;
  spec.configured = true;
  if (!value.is_object()) {
    return Status::InvalidArgument("batch \"faults\" must be an object");
  }
  for (const auto& [key, item] : value.as_object()) {
    if (key == "seed") {
      SCWSC_ASSIGN_OR_RETURN(
          spec.seed, RequireInteger<std::uint64_t>(item, "faults.seed", 0,
                                                   kMaxWireInteger));
    } else if (key == "solver_delay_ms") {
      SCWSC_ASSIGN_OR_RETURN(
          spec.solver_delay_ms,
          RequireInteger<std::uint64_t>(item, "faults.solver_delay_ms", 0,
                                        kMaxWireInteger));
    } else if (key == "points") {
      if (!item.is_object()) {
        return Status::InvalidArgument("faults.points must be an object");
      }
      for (const auto& [name, prob] : item.as_object()) {
        SCWSC_ASSIGN_OR_RETURN(FaultPoint point, FaultPointFromString(name));
        SCWSC_ASSIGN_OR_RETURN(double p,
                               RequireNumber(prob, "faults.points." + name));
        if (p < 0.0 || p > 1.0) {
          return Status::InvalidArgument("faults.points." + name +
                                         " must be in [0, 1]");
        }
        spec.probabilities[static_cast<std::size_t>(point)] = p;
      }
    } else {
      return Status::InvalidArgument(
          "unknown batch \"faults\" key '" + key +
          "'; accepted: seed, solver_delay_ms, points");
    }
  }
  return spec;
}

Result<SloSpec> ParseSloSpec(const JsonValue& value) {
  SloSpec spec;
  spec.configured = true;
  if (!value.is_object()) {
    return Status::InvalidArgument("batch \"slo\" must be an object");
  }
  for (const auto& [key, item] : value.as_object()) {
    if (key == "rules") {
      if (!item.is_array()) {
        return Status::InvalidArgument("slo.rules must be an array");
      }
      for (const JsonValue& rule_value : item.as_array()) {
        if (!rule_value.is_string()) {
          return Status::InvalidArgument(
              "slo.rules entries must be strings like "
              "\"p99_latency_ms<=250\"");
        }
        SCWSC_ASSIGN_OR_RETURN(SloRule rule,
                               ParseSloRule(rule_value.as_string()));
        spec.rules.push_back(std::move(rule));
      }
    } else if (key == "interval_ms") {
      SCWSC_ASSIGN_OR_RETURN(double ms,
                             RequireNumber(item, "slo.interval_ms"));
      if (!(ms > 0.0)) {
        return Status::InvalidArgument("slo.interval_ms must be > 0");
      }
      spec.interval_ms = ms;
    } else if (key == "dump_path") {
      if (!item.is_string()) {
        return Status::InvalidArgument("slo.dump_path must be a string");
      }
      spec.dump_path = item.as_string();
    } else {
      return Status::InvalidArgument(
          "unknown batch \"slo\" key '" + key +
          "'; accepted: rules, interval_ms, dump_path");
    }
  }
  return spec;
}

}  // namespace

Result<BatchSpec> ParseBatchSpec(const std::string& path,
                                 api::InstancePtr instance) {
  BatchSpec spec;
  SCWSC_ASSIGN_OR_RETURN(JsonValue root, ReadJsonFile(path));
  SCWSC_RETURN_NOT_OK(CheckWireVersion(root, "batch-file " + path));
  if (const JsonValue* faults = root.Find("faults")) {
    SCWSC_ASSIGN_OR_RETURN(spec.faults, ParseFaultSpec(*faults));
  }
  if (const JsonValue* slo = root.Find("slo")) {
    SCWSC_ASSIGN_OR_RETURN(spec.slo, ParseSloSpec(*slo));
  }
  const JsonValue* jobs_value = root.Find("jobs");
  if (jobs_value == nullptr || !jobs_value->is_array()) {
    return Status::InvalidArgument(
        "batch file '" + path + "' must be an object with a \"jobs\" array");
  }
  for (const auto& [key, value] : root.as_object()) {
    if (key != "version" && key != "jobs" && key != "faults" &&
        key != "slo") {
      spec.forward[key] = value;
    }
  }
  std::size_t index = 0;
  for (const JsonValue& entry : jobs_value->as_array()) {
    const std::string at = "jobs[" + std::to_string(index) + "]";
    SCWSC_ASSIGN_OR_RETURN(ParsedJob parsed,
                           ParseJobObject(entry, instance, at));
    if (parsed.job.request.label.empty()) {
      parsed.job.request.label = "job-" + std::to_string(index);
    }
    for (const auto& [key, value] : parsed.forward) {
      spec.forward[at + "." + key] = value;
    }
    for (std::size_t i = 0; i < parsed.repeat; ++i) {
      spec.jobs.push_back(parsed.job);
    }
    ++index;
  }
  return spec;
}

Result<JsonValue> RunBatch(BatchSpec spec, SolveScheduler& scheduler) {
  struct Slot {
    std::string label;
    std::string solver;
    std::future<JobOutcome> future;
    Status rejected = Status::OK();  // admission failure, if any
  };
  std::vector<Slot> slots;
  slots.reserve(spec.jobs.size());

  Stopwatch wall;
  for (SolveJob& job : spec.jobs) {
    Slot slot;
    slot.label = job.request.label;
    slot.solver = job.solver;
    auto future = scheduler.Enqueue(std::move(job));
    if (future.ok()) {
      slot.future = std::move(*future);
    } else {
      slot.rejected = future.status();
    }
    slots.push_back(std::move(slot));
  }

  JsonArray job_reports;
  std::vector<double> latencies;
  std::size_t succeeded = 0, failed = 0, cache_hits = 0;
  for (Slot& slot : slots) {
    JsonObject report;
    report["label"] = slot.label;
    report["solver"] = slot.solver;
    if (!slot.rejected.ok()) {
      report["ok"] = false;
      report["error"] = ErrorToJson(ErrorInfoFromStatus(slot.rejected));
      ++failed;
      job_reports.push_back(JsonValue(std::move(report)));
      continue;
    }
    JobOutcome outcome = slot.future.get();
    const double latency = outcome.queue_seconds + outcome.run_seconds;
    latencies.push_back(latency);
    report["from_result_cache"] = outcome.from_result_cache;
    report["queue_seconds"] = outcome.queue_seconds;
    report["run_seconds"] = outcome.run_seconds;
    if (outcome.from_result_cache) ++cache_hits;
    const api::SolveResult* result = nullptr;
    if (outcome.result.ok()) {
      report["ok"] = true;
      result = &*outcome.result;
      ++succeeded;
    } else {
      report["ok"] = false;
      report["error"] =
          ErrorToJson(ErrorInfoFromStatus(outcome.result.status()));
      // An interruption still surfaces its best-so-far partial.
      result = outcome.result.status().payload<api::SolveResult>();
      ++failed;
    }
    if (result != nullptr) AddResultFields(*result, report);
    job_reports.push_back(JsonValue(std::move(report)));
  }
  const double wall_seconds = wall.ElapsedSeconds();
  // One forced telemetry tick so the aggregate reads final counters and the
  // last interval's SLO evaluations (no-op without a pump).
  scheduler.FlushTelemetry();

  std::sort(latencies.begin(), latencies.end());
  obs::MetricRegistry& metrics = scheduler.metrics();
  JsonObject aggregate;
  aggregate["total_jobs"] = slots.size();
  aggregate["succeeded"] = succeeded;
  aggregate["failed"] = failed;
  aggregate["wall_seconds"] = wall_seconds;
  aggregate["jobs_per_second"] =
      wall_seconds > 0.0 ? static_cast<double>(slots.size()) / wall_seconds
                         : 0.0;
  aggregate["result_cache_hits"] =
      metrics.CounterValue("serve.result_cache.hits");
  aggregate["result_cache_misses"] =
      metrics.CounterValue("serve.result_cache.misses");
  aggregate["batch_result_cache_hits"] = cache_hits;
  aggregate["p50_latency_seconds"] = Percentile(latencies, 0.50);
  aggregate["p99_latency_seconds"] = Percentile(latencies, 0.99);
  aggregate["results_quarantined"] =
      metrics.CounterValue("serve.result_cache.quarantined");
  aggregate["slo_violations"] =
      metrics.CounterValue("serve.slo.violations");

  JsonObject root;
  root["version"] = JsonValue(static_cast<std::size_t>(kWireVersion));
  root["jobs"] = JsonValue(std::move(job_reports));
  root["aggregate"] = JsonValue(std::move(aggregate));
  if (!spec.forward.empty()) {
    root["forward"] = JsonValue(std::move(spec.forward));
  }
  return JsonValue(std::move(root));
}

}  // namespace serve
}  // namespace scwsc
