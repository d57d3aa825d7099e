#include "src/serve/telemetry.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/export.h"
#include "src/obs/json_util.h"
#include "src/serve/json.h"

namespace scwsc {
namespace serve {

namespace {

// Counter families the SLO error-rate rule diffs, as recorded by the
// scheduler's completion path.
constexpr const char* kCompletedCounter = "serve.jobs.completed";
constexpr const char* kFailedCounter = "serve.jobs.failed";
// The per-solver latency sketch family the scheduler observes into; its
// merged aggregate feeds latency SLO rules.
constexpr const char* kLatencyFamily = "serve.latency_seconds";

std::string FamilyOf(const std::string& sketch_name) {
  const std::size_t hash = sketch_name.find('#');
  return hash == std::string::npos ? sketch_name : sketch_name.substr(0, hash);
}

JsonValue SketchToJson(const obs::QuantileSketch& sketch) {
  JsonObject o;
  o["count"] = JsonValue(static_cast<std::size_t>(sketch.count()));
  o["sum"] = JsonValue(sketch.sum());
  o["p50"] = JsonValue(sketch.Quantile(0.5));
  o["p90"] = JsonValue(sketch.Quantile(0.9));
  o["p99"] = JsonValue(sketch.Quantile(0.99));
  o["p999"] = JsonValue(sketch.Quantile(0.999));
  return JsonValue(std::move(o));
}

Status AppendLine(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "' for append");
  }
  const std::string body = line + "\n";
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != body.size() || !close_ok) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

TelemetryPump::TelemetryPump(obs::MetricRegistry* registry,
                             TelemetryOptions options,
                             const obs::TraceSession* history)
    : registry_(registry),
      options_(std::move(options)),
      history_(history),
      started_(std::chrono::steady_clock::now()) {
  if (options_.interval_seconds > 0.0 && options_.configured()) {
    thread_ = std::thread([this] { Loop(); });
  }
}

TelemetryPump::~TelemetryPump() { Stop(); }

void TelemetryPump::SetTickSampler(std::function<void()> sampler) {
  std::lock_guard<std::mutex> lock(tick_mu_);
  sampler_ = std::move(sampler);
}

void TelemetryPump::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (joined_) return;
    stop_ = true;
    joined_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  TickNow();  // record the final partial interval
}

void TelemetryPump::TickNow() {
  std::lock_guard<std::mutex> lock(tick_mu_);
  Tick();
}

std::uint64_t TelemetryPump::ticks() const {
  std::lock_guard<std::mutex> lock(tick_mu_);
  return tick_count_;
}

std::uint64_t TelemetryPump::violations() const {
  std::lock_guard<std::mutex> lock(tick_mu_);
  return violation_count_;
}

std::vector<std::string> TelemetryPump::dump_paths() const {
  std::lock_guard<std::mutex> lock(tick_mu_);
  return dump_paths_;
}

Status TelemetryPump::last_error() const {
  std::lock_guard<std::mutex> lock(tick_mu_);
  return error_;
}

void TelemetryPump::Loop() {
  const auto interval =
      std::chrono::duration<double>(options_.interval_seconds);
  std::unique_lock<std::mutex> lock(stop_mu_);
  for (;;) {
    stop_cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    TickNow();
    lock.lock();
  }
}

void TelemetryPump::Tick() {
  if (sampler_) sampler_();
  // The suppressed-warning count is process state, not a registry counter;
  // mirror it as a gauge so the JSONL and exposition carry it.
  registry_->gauge("log.suppressed")
      .Set(static_cast<double>(LogSuppressedCount()));

  const auto counters = registry_->CounterValues();
  const auto gauges = registry_->GaugeValues();
  const auto sketches = registry_->SketchValues();

  // Merge '#'-families; a plain name is its own single-member family.
  std::map<std::string, obs::QuantileSketch> families;
  for (const auto& [name, sketch] : sketches) {
    const std::string family = FamilyOf(name);
    auto it = families.find(family);
    if (it == families.end()) {
      families.emplace(family, sketch);
    } else {
      // Members of one family share a relative error by construction; a
      // mismatched member is skipped rather than poisoning the aggregate.
      const Status merged = it->second.Merge(sketch);
      (void)merged;
    }
  }

  // Counter deltas vs the previous tick (first tick diffs against zero).
  std::map<std::string, std::uint64_t> deltas;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const auto& [name, value] : counters) {
    const auto prev = prev_counters_.find(name);
    const std::uint64_t before =
        prev == prev_counters_.end() ? 0 : prev->second;
    if (value > before) deltas[name] = value - before;
    prev_counters_[name] = value;
    if (name == kCompletedCounter) completed = value;
    if (name == kFailedCounter) failed = value;
  }

  // SLO evaluation over this tick's evidence.
  SloSample sample;
  const auto family_it = families.find(kLatencyFamily);
  if (family_it != families.end()) sample.latency = &family_it->second;
  sample.completed_delta =
      completed >= prev_completed_ ? completed - prev_completed_ : 0;
  sample.failed_delta = failed >= prev_failed_ ? failed - prev_failed_ : 0;
  prev_completed_ = completed;
  prev_failed_ = failed;
  sample.queue_depth = registry_->GaugeValue("serve.queue.depth");

  // Tenant-scoped rules read that tenant's own sketch member and completion
  // deltas; queue depth stays global (the queue is a shared resource, not a
  // per-tenant one). Aggregate rules see the merged sample.
  std::vector<SloRule> aggregate_rules;
  std::map<std::string, std::vector<SloRule>> tenant_rules;
  for (const SloRule& rule : options_.slo_rules) {
    if (rule.tenant.empty()) {
      aggregate_rules.push_back(rule);
    } else {
      tenant_rules[rule.tenant].push_back(rule);
    }
  }
  std::vector<SloViolation> violated = EvaluateSlos(aggregate_rules, sample);
  for (const auto& [tenant, rules] : tenant_rules) {
    SloSample tenant_sample;
    const std::string member = "serve.tenant.latency_seconds#" + tenant;
    for (const auto& [name, sketch] : sketches) {
      if (name == member) {
        tenant_sample.latency = &sketch;
        break;
      }
    }
    const auto delta_of = [&deltas](const std::string& name) {
      const auto it = deltas.find(name);
      return it == deltas.end() ? std::uint64_t{0} : it->second;
    };
    tenant_sample.completed_delta =
        delta_of("serve.tenant." + tenant + ".completed");
    tenant_sample.failed_delta =
        delta_of("serve.tenant." + tenant + ".failed");
    tenant_sample.queue_depth = sample.queue_depth;
    for (SloViolation& v : EvaluateSlos(rules, tenant_sample)) {
      violated.push_back(std::move(v));
    }
  }

  if (!violated.empty()) {
    registry_->counter("serve.slo.violations").Increment(violated.size());
    violation_count_ += violated.size();
    for (const SloViolation& v : violated) {
      SCWSC_LOG_WARN("slo violation: %s (observed %.6g)",
                     v.rule.text.c_str(), v.observed);
    }
    if (history_ != nullptr && dump_paths_.size() < options_.max_slo_dumps) {
      std::string base = options_.slo_dump_path;
      if (base.empty()) {
        base = options_.jsonl_path.empty()
                   ? std::string("slo_trace.json")
                   : options_.jsonl_path + ".slo_trace.json";
      }
      std::string path = base;
      if (!dump_paths_.empty()) {
        path += "." + std::to_string(dump_paths_.size() + 1);
      }
      const Status dumped = obs::WriteChromeTraceJson(*history_, path);
      if (dumped.ok()) {
        dump_paths_.push_back(path);
        SCWSC_LOG_WARN("slo violation: history dumped to %s", path.c_str());
      } else if (error_.ok()) {
        error_ = dumped;
      }
    }
  }

  ++tick_count_;

  if (!options_.jsonl_path.empty()) {
    JsonObject line;
    line["tick"] = JsonValue(static_cast<std::size_t>(tick_count_));
    line["elapsed_seconds"] = JsonValue(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count());
    JsonObject counters_obj;
    for (const auto& [name, value] : counters) {
      counters_obj[name] = JsonValue(static_cast<std::size_t>(value));
    }
    line["counters"] = JsonValue(std::move(counters_obj));
    JsonObject deltas_obj;
    for (const auto& [name, value] : deltas) {
      deltas_obj[name] = JsonValue(static_cast<std::size_t>(value));
    }
    line["deltas"] = JsonValue(std::move(deltas_obj));
    JsonObject gauges_obj;
    for (const auto& [name, value] : gauges) {
      gauges_obj[name] = JsonValue(value);
    }
    line["gauges"] = JsonValue(std::move(gauges_obj));
    JsonObject quantiles;
    for (const auto& [name, sketch] : sketches) {
      if (FamilyOf(name) != name) quantiles[name] = SketchToJson(sketch);
    }
    for (const auto& [family, merged] : families) {
      quantiles[family] = SketchToJson(merged);
    }
    line["quantiles"] = JsonValue(std::move(quantiles));
    JsonObject slo;
    slo["violations_total"] =
        JsonValue(static_cast<std::size_t>(violation_count_));
    JsonArray violated_arr;
    for (const SloViolation& v : violated) {
      JsonObject vo;
      vo["rule"] = JsonValue(v.rule.text);
      vo["observed"] = JsonValue(v.observed);
      violated_arr.push_back(JsonValue(std::move(vo)));
    }
    slo["violated"] = JsonValue(std::move(violated_arr));
    line["slo"] = JsonValue(std::move(slo));

    const Status appended =
        AppendLine(options_.jsonl_path, JsonValue(std::move(line)).Dump());
    if (!appended.ok() && error_.ok()) error_ = appended;
  }

  if (!options_.prom_path.empty()) {
    const Status written = obs::internal::WriteFileOrStatus(
        options_.prom_path, obs::ToPrometheusText(*registry_));
    if (!written.ok() && error_.ok()) error_ = written;
  }
}

}  // namespace serve
}  // namespace scwsc
