// Instance-specific accuracy certificate for size-constrained weighted set
// cover, after Prolubnikov (arXiv 1811.04037): instead of quoting a
// worst-case factor, certify the answer actually produced on the instance
// actually solved.
//
// The certificate is a lower bound on the cost of every selection that
// covers at least m = ⌈ŝn⌉ elements, whatever its size — so also on the
// k-constrained optimum. It comes from dual fitting on a greedy weighted
// cover of every element some set contains (GreedyFullCover,
// core/baselines.h): each element is priced when first covered, at
// cost(S_t) / |newly covered by S_t|. The greedy takes zero-cost sets
// first, so their elements cost 0. For every set S with positive cost,
// gamma(S) = (price mass of S) / cost(S) measures how far the prices
// overshoot the dual constraint Σ_{e∈S} y_e ≤ cost(S); dividing every price
// by gamma = max_S gamma(S) makes them dual feasible. The partial-cover LP
//
//   min Σ_S cost(S)·x_S  s.t.  z_e ≤ Σ_{S∋e} x_S,  Σ_e z_e ≥ m,
//                              0 ≤ z_e ≤ 1,  x_S ≥ 0
//
// has the dual  max m·t − Σ_e u_e  s.t.  Σ_{e∈S} y_e ≤ cost(S),
// t ≤ y_e + u_e,  y, u, t ≥ 0.  With the scaled prices as y the best t
// yields the sum of the m smallest scaled prices, which by weak duality is
// at most the LP optimum; the k constraint and integrality can only raise
// that. An element no set contains has no dual constraint, so it never
// counts among the m smallest.
//
// The bound reads no selection, so it holds for every solver's answer, and
// cost / bound is >= 1 for any answer that covers m elements.

#ifndef SCWSC_CORE_ACCURACY_H_
#define SCWSC_CORE_ACCURACY_H_

#include "src/common/result.h"
#include "src/common/run_context.h"
#include "src/core/set_system.h"

namespace scwsc {

class SolveIndex;

/// The certificate's lower bound on the cost of any selection covering at
/// least CoverageTarget(coverage_fraction, n) elements: 0 when the target is
/// 0 or zero-cost sets alone reach it; InvalidArgument for a fraction
/// outside [0, 1]. Cost: one greedy full cover, one pass over the sets and a
/// selection over n prices; O(n) extra memory. A RunContext trip during the
/// greedy returns its interruption status.
Result<double> CoverageLowerBound(const SolveIndex& index,
                                  double coverage_fraction,
                                  const RunContext* run_context = nullptr);

/// CoverageLowerBound over a private SolveIndex of `system`.
Result<double> CoverageLowerBound(const SetSystem& system,
                                  double coverage_fraction,
                                  const RunContext* run_context = nullptr);

/// total_cost / lower_bound, with 0 / 0 = 1 and c / 0 = +infinity for c > 0.
double CertifiedRatio(double total_cost, double lower_bound);

}  // namespace scwsc

#endif  // SCWSC_CORE_ACCURACY_H_
