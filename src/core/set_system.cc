#include "src/core/set_system.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/logging.h"

namespace scwsc {

SetSystem::SetSystem(std::size_t num_elements) : num_elements_(num_elements) {}

SetSystem SetSystem::Clone() const {
  SetSystem copy(num_elements_);
  copy.sets_ = sets_;
  copy.total_cost_ = total_cost_;
  return copy;
}

Result<SetId> SetSystem::AddSet(std::vector<ElementId> elements, double cost,
                                std::string label) {
  if (!(cost >= 0.0) || !std::isfinite(cost)) {
    return Status::InvalidArgument("set cost must be finite and >= 0");
  }
  if (!std::isfinite(total_cost_ + cost)) {
    return Status::InvalidArgument(
        "set cost overflows the total cost of the system");
  }
  // Callers that already hold a canonical list (pattern rows, delta copies)
  // skip the sort and the dedup.
  if (std::adjacent_find(elements.begin(), elements.end(),
                         std::greater_equal<ElementId>()) != elements.end()) {
    std::sort(elements.begin(), elements.end());
    elements.erase(std::unique(elements.begin(), elements.end()),
                   elements.end());
  }
  if (!elements.empty() && elements.back() >= num_elements_) {
    return Status::InvalidArgument("element id out of universe");
  }
  if (sets_.size() >= kInvalidSet) {
    return Status::ResourceExhausted("too many sets");
  }
  sets_.push_back(WeightedSet{std::move(elements), cost, std::move(label)});
  total_cost_ += cost;
  return static_cast<SetId>(sets_.size() - 1);
}

double SetSystem::TotalCost() const { return total_cost_; }

double SetSystem::KCheapestCost(std::size_t k) const {
  std::vector<double> costs;
  costs.reserve(sets_.size());
  for (const auto& s : sets_) costs.push_back(s.cost);
  k = std::min(k, costs.size());
  std::partial_sort(costs.begin(), costs.begin() + static_cast<std::ptrdiff_t>(k),
                    costs.end());
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) total += costs[i];
  return total;
}

bool SetSystem::HasUniverseSet() const {
  for (const auto& s : sets_) {
    if (s.elements.size() == num_elements_) return true;
  }
  return false;
}

std::vector<std::vector<SetId>> SetSystem::BuildInvertedIndex() const {
  std::vector<std::vector<SetId>> inverted(num_elements_);
  for (SetId id = 0; id < sets_.size(); ++id) {
    for (ElementId e : sets_[id].elements) inverted[e].push_back(id);
  }
  return inverted;
}

std::size_t SetSystem::CoverageTarget(double fraction, std::size_t n) {
  SCWSC_CHECK(fraction >= 0.0 && fraction <= 1.0,
              "coverage fraction outside [0,1]");
  const double x = fraction * static_cast<double>(n);
  // Tolerate relative floating-point dust so fraction = p/n targets exactly p.
  const double eps = 1e-9 * std::max(1.0, x);
  const double target = std::ceil(x - eps);
  return static_cast<std::size_t>(std::max(0.0, target));
}

bool BetterGain(std::size_t count_a, double cost_a, std::size_t count_b,
                double cost_b) {
  // gain = count / cost; compare count_a/cost_a > count_b/cost_b via
  // count_a * cost_b > count_b * cost_a (costs are >= 0).
  if (cost_a == 0.0 && cost_b == 0.0) return count_a > count_b;
  if (cost_a == 0.0) return count_a > 0;   // infinite gain beats finite
  if (cost_b == 0.0) return false;
  return static_cast<double>(count_a) * cost_b >
         static_cast<double>(count_b) * cost_a;
}

}  // namespace scwsc
