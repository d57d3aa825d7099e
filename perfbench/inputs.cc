#include "perfbench/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "src/core/cmc.h"
#include "src/gen/lbl_synth.h"

namespace perfbench {

using scwsc::ElementId;
using scwsc::Rng;
using scwsc::SetId;
using scwsc::SetSystem;
using scwsc::serve::JsonArray;
using scwsc::serve::JsonObject;
using scwsc::serve::JsonValue;

namespace {

std::vector<std::size_t> Shuffled(std::size_t count, Rng& rng) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

void MustAdd(SetSystem& system, std::vector<ElementId> elements, double cost,
             std::string label) {
  if (!system.AddSet(std::move(elements), cost, std::move(label)).ok()) {
    std::abort();  // the generators only produce valid sets
  }
}

}  // namespace

SetSystem CarrierSystem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  SetSystem system(n);
  std::vector<ElementId> universe(n);
  for (std::size_t e = 0; e < n; ++e) universe[e] = static_cast<ElementId>(e);
  MustAdd(system, std::move(universe), static_cast<double>(n), "universe");
  const auto add_intervals = [&](std::size_t count, std::size_t len,
                                 double cost, const char* prefix) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t start = rng.NextBounded(n - len);
      std::vector<ElementId> elements(len);
      for (std::size_t j = 0; j < len; ++j) {
        elements[j] = static_cast<ElementId>(start + j);
      }
      MustAdd(system, std::move(elements), cost, prefix + std::to_string(i));
    }
  };
  add_intervals(400, n / 350, 10.0, "carrier");
  add_intervals(3000, n / 3500, 0.4, "beacon");
  return system;
}

scwsc::Table Trace(std::size_t rows, std::uint64_t seed) {
  scwsc::gen::LblSynthSpec spec;
  spec.num_rows = rows;
  spec.seed = seed;
  auto table = scwsc::gen::MakeLblSynth(spec);
  if (!table.ok()) std::abort();
  return std::move(table).value();
}

std::vector<double> EvenOffsets(std::size_t count, double rate, Rng& rng) {
  const double phase = rng.NextDouble();
  std::vector<double> offsets(count);
  for (std::size_t i = 0; i < count; ++i) {
    offsets[i] = (static_cast<double>(i) + phase) / rate;
  }
  return offsets;
}

std::vector<Query> DrawQueries(const QueryMix& mix, std::size_t count,
                               Rng& rng, std::set<QueryKey>* used) {
  // Each solver's share samples the k x coverage rectangle systematically:
  // k on an evenly spaced grid, coverage on a second grid paired with it by
  // a fixed golden-ratio stride, both shifted by seeded offsets, then sent
  // in seeded order. Every seed asks each solver for the same spread of
  // work, in different keys and order.
  const std::size_t solvers = mix.solvers.size();
  std::vector<std::vector<Query>> per_solver(solvers);
  const std::size_t k_span = mix.k_hi - mix.k_lo + 1;
  for (std::size_t s = 0; s < solvers; ++s) {
    const std::size_t share = (count + solvers - 1 - s) / solvers;
    if (share == 0) continue;
    const double k_shift = rng.NextDouble();
    const double c_shift = rng.NextDouble();
    std::size_t stride = std::max<std::size_t>(
        1, static_cast<std::size_t>(0.618 * static_cast<double>(share)));
    while (std::gcd(stride, share) != 1) ++stride;  // a permutation of 0..share
    for (std::size_t i = 0; i < share; ++i) {
      const std::size_t j = (i * stride) % share;
      Query q;
      q.solver = mix.solvers[s];
      std::size_t k_offset = std::min(
          k_span - 1, static_cast<std::size_t>(
                          (static_cast<double>(i) + k_shift) /
                          static_cast<double>(share) *
                          static_cast<double>(k_span)));
      q.k = mix.k_lo + k_offset;
      q.coverage =
          std::round((mix.coverage_lo + (static_cast<double>(j) + c_shift) /
                                            static_cast<double>(share) *
                                            (mix.coverage_hi - mix.coverage_lo)) *
                     1e4) /
          1e4;
      // Distinct keys, so no request can be served from the result cache.
      while (!used->insert(QueryKey{q.solver, q.k, q.coverage}).second) {
        k_offset = (k_offset + 1) % k_span;
        q.k = mix.k_lo + k_offset;
      }
      per_solver[s].push_back(q);
    }
    const std::vector<std::size_t> order = Shuffled(share, rng);
    std::vector<Query> shuffled;
    for (const std::size_t i : order) shuffled.push_back(per_solver[s][i]);
    per_solver[s] = std::move(shuffled);
  }
  // Solvers take turns in the mix's order.
  std::vector<Query> queries;
  for (std::size_t i = 0; queries.size() < count; ++i) {
    std::vector<Query>& pending = per_solver[i % solvers];
    if (pending.empty()) continue;
    queries.push_back(pending.back());
    pending.pop_back();
  }
  return queries;
}

SetSystemLog::SetSystemLog(const SetSystem& base) : base_(base) {
  std::vector<std::size_t> ids(base.num_sets());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = i;
    label_costs_[base.set(static_cast<SetId>(i)).label] =
        base.set(static_cast<SetId>(i)).cost;
  }
  versions_.push_back(std::move(ids));
}

scwsc::api::SnapshotDelta SetSystemLog::NextDelta(Rng& rng) {
  const std::size_t n = base_.num_elements();
  const std::size_t number = versions_.size();  // 1 for the first delta
  std::vector<std::size_t> ids = versions_.back();
  scwsc::api::SnapshotDelta delta;
  if (number % 2 == 0) {
    // Never the universe set (id 0): every request must stay feasible.
    const std::size_t victim = 1 + rng.NextBounded(ids.size() - 1);
    delta.remove_sets.push_back(static_cast<SetId>(victim));
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  // A beacon-sized interval: dirties one region of the universe.
  scwsc::api::SnapshotDelta::SetAdd add;
  const std::size_t len = n / 3500;
  const std::size_t start = rng.NextBounded(n - len);
  for (std::size_t j = 0; j < len; ++j) {
    add.elements.push_back(static_cast<ElementId>(start + j));
  }
  add.cost = 0.36 + 0.08 * rng.NextDouble();
  add.label = "delta" + std::to_string(number);
  label_costs_[add.label] = add.cost;
  added_.push_back(scwsc::WeightedSet{add.elements, add.cost, add.label});
  delta.add_sets.push_back(std::move(add));
  ids.push_back(base_.num_sets() + added_.size() - 1);
  versions_.push_back(std::move(ids));
  return delta;
}

JsonObject SetSystemLog::ToWire(const scwsc::api::SnapshotDelta& delta) {
  JsonArray adds;
  for (const auto& add : delta.add_sets) {
    JsonArray elements;
    elements.reserve(add.elements.size());
    for (const ElementId e : add.elements) {
      elements.push_back(JsonValue(static_cast<std::size_t>(e)));
    }
    JsonObject set;
    set["elements"] = JsonValue(std::move(elements));
    set["cost"] = JsonValue(add.cost);
    set["label"] = JsonValue(add.label);
    adds.push_back(JsonValue(std::move(set)));
  }
  JsonObject body;
  body["add_sets"] = JsonValue(std::move(adds));
  if (!delta.remove_sets.empty()) {
    JsonArray removes;
    for (const SetId id : delta.remove_sets) {
      removes.push_back(JsonValue(static_cast<std::size_t>(id)));
    }
    body["remove_sets"] = JsonValue(std::move(removes));
  }
  return body;
}

SetSystem SetSystemLog::Build(std::size_t version) const {
  SetSystem system(base_.num_elements());
  for (const std::size_t id : versions_[version]) {
    const scwsc::WeightedSet& set =
        id < base_.num_sets() ? base_.set(static_cast<SetId>(id))
                              : added_[id - base_.num_sets()];
    MustAdd(system, set.elements, set.cost, set.label);
  }
  return system;
}

std::string CheckContract(const Query& query, const JsonValue& result,
                          std::size_t n,
                          const std::map<std::string, double>* label_costs) {
  const JsonValue* selection = result.Find("selection");
  const JsonValue* num_sets = result.Find("num_sets");
  const JsonValue* covered = result.Find("covered");
  const JsonValue* total_cost = result.Find("total_cost");
  if (selection == nullptr || !selection->is_array() || num_sets == nullptr ||
      covered == nullptr || total_cost == nullptr || !num_sets->is_number() ||
      !covered->is_number() || !total_cost->is_number()) {
    return "response lacks selection/num_sets/covered/total_cost";
  }
  const std::size_t picks = selection->as_array().size();
  const double cover = covered->as_number();
  const double cost = total_cost->as_number();
  if (num_sets->as_number() != static_cast<double>(picks)) {
    return "num_sets differs from the selection's length";
  }
  if (!(cover >= 0.0 && cover <= static_cast<double>(n))) {
    return "covered outside [0, n]";
  }
  if (!std::isfinite(cost) || cost < 0.0) return "total_cost not finite";

  std::size_t max_sets = 0;  // 0 = the solver promises no size bound
  std::size_t target = SetSystem::CoverageTarget(query.coverage, n);
  if (query.solver == "cwsc" || query.solver == "opt-cwsc") {
    max_sets = query.k;
  } else if (query.solver == "cmc") {
    const scwsc::CmcOptions defaults;
    max_sets = scwsc::CmcMaxSelectable(query.k, defaults.epsilon, defaults.l);
    target = scwsc::CmcCoverageTarget(query.coverage, n,
                                      defaults.relax_coverage);
  }
  if (max_sets > 0 && picks > max_sets) return "more sets than the contract";
  if (cover < static_cast<double>(target)) return "coverage below the target";

  if (label_costs != nullptr) {
    double sum = 0.0;
    for (const JsonValue& label : selection->as_array()) {
      const auto it = label_costs->find(label.as_string());
      if (it == label_costs->end()) return "unknown set " + label.as_string();
      sum += it->second;
    }
    if (std::abs(sum - cost) > 1e-9 * std::max(1.0, sum)) {
      return "total_cost differs from the selection's summed cost";
    }
  }
  return "";
}

}  // namespace perfbench
