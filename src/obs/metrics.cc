#include "src/obs/metrics.h"

namespace scwsc {
namespace obs {

MetricCounter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<MetricCounter>();
  return *slot;
}

MetricGauge& MetricRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<MetricGauge>();
  return *slot;
}

MetricSketch& MetricRegistry::sketch(const std::string& name,
                                     double relative_error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = sketches_[name];
  if (slot == nullptr) slot = std::make_unique<MetricSketch>(relative_error);
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, QuantileSketch>>
MetricRegistry::SketchValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, QuantileSketch>> out;
  out.reserve(sketches_.size());
  for (const auto& [name, s] : sketches_) out.emplace_back(name, s->snapshot());
  return out;
}

std::uint64_t MetricRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

}  // namespace obs
}  // namespace scwsc
