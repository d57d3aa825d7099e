#include "src/core/accuracy.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "src/core/baselines.h"

namespace scwsc {

Result<double> CoverageLowerBound(const SetSystem& system,
                                  double coverage_fraction,
                                  const RunContext* run_context) {
  if (coverage_fraction < 0.0 || coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  const std::size_t n = system.num_elements();
  const std::size_t target = SetSystem::CoverageTarget(coverage_fraction, n);
  if (target == 0) return 0.0;
  SCWSC_ASSIGN_OR_RETURN(const Solution cover,
                         GreedyFullCover(system, run_context));

  // Dual-fitting prices: each element is charged when first covered, at the
  // covering set's cost split across everything it newly covers. Every
  // element some set contains ends up priced; the rest stay unpriced.
  constexpr double kUnpriced = -1.0;
  std::vector<double> price(n, kUnpriced);
  for (const SetId id : cover.sets) {
    const WeightedSet& s = system.set(id);
    std::size_t newly = 0;
    for (const ElementId e : s.elements) {
      if (price[e] == kUnpriced) ++newly;
    }
    // The greedy only takes sets that add coverage, so newly > 0.
    const double per_element = s.cost / static_cast<double>(newly);
    for (const ElementId e : s.elements) {
      if (price[e] == kUnpriced) price[e] = per_element;
    }
  }

  // gamma = the largest factor by which a positive-cost set's price mass
  // overshoots its cost. Zero-cost sets carry no mass: the greedy took them
  // before any positive-cost set, so their elements are priced 0.
  double gamma = 0.0;
  for (SetId id = 0; id < system.num_sets(); ++id) {
    const WeightedSet& s = system.set(id);
    if (!(s.cost > 0.0)) continue;
    double mass = 0.0;
    for (const ElementId e : s.elements) mass += price[e];
    gamma = std::max(gamma, mass / s.cost);
  }
  if (!(gamma > 0.0)) return 0.0;  // free sets cover all that is coverable

  // The sum of the target smallest prices over the priced elements, scaled.
  price.erase(std::remove(price.begin(), price.end(), kUnpriced), price.end());
  const std::size_t m = std::min(target, price.size());
  const auto mth = price.begin() + static_cast<std::ptrdiff_t>(m);
  std::nth_element(price.begin(), mth, price.end());
  return std::accumulate(price.begin(), mth, 0.0) / gamma;
}

double CertifiedRatio(double total_cost, double lower_bound) {
  if (lower_bound > 0.0) return total_cost / lower_bound;
  return total_cost > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
}

}  // namespace scwsc
