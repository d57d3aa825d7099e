// LP relaxation and randomized rounding for size-constrained weighted set
// cover (the §III approach: "model it via an integer linear program,
// consider its linear relaxation and then round the fractional solution").
//
// Relaxation (variables x_s per set, z_e per element, all in [0, 1]):
//
//   min  Σ_s Cost(s) · x_s
//   s.t. z_e ≤ Σ_{s ∋ e} x_s      for every element e
//        Σ_e z_e ≥ ŝ·n
//        Σ_s x_s ≤ k
//
// Its optimum lower-bounds every integral solution, so LpLowerBound gives a
// *certified* optimality gap for the greedy solvers without exhaustive
// search. SolveByLpRounding rounds x by independent inclusion with
// probability min(1, α·x_s) over several trials, greedily repairing
// coverage when needed — and reports by how much the rounded solution
// violates the cardinality constraint, which is exactly the §III caveat
// ("may violate the cardinality constraint by more than a (1 + ε) factor
// unless k is large").

#ifndef SCWSC_LP_LP_ROUNDING_H_
#define SCWSC_LP_LP_ROUNDING_H_

#include "src/common/result.h"
#include "src/core/solution.h"
#include "src/lp/simplex.h"

namespace scwsc {

class SolveIndex;

namespace lp {

struct LpScwscOptions {
  std::size_t k = 10;
  double coverage_fraction = 0.3;
  /// Rounding inflation factor; <= 0 picks ln(n) + 1 automatically.
  double alpha = 0.0;
  /// Independent rounding trials; the cheapest coverage-feasible one wins.
  std::size_t trials = 64;
  std::uint64_t seed = 2015;
  LpOptions lp;
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  /// Propagated into the simplex solve (per-pivot checks) and observed
  /// between rounding trials and repair picks. On a trip after the
  /// relaxation solved, the error Status carries the best LpRoundingResult
  /// so far as payload (its solution may be coverage-infeasible when no
  /// trial had finished; check provenance.coverage_reached).
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs): the relax / round / repair
  /// phases run under spans and trial counters are published. Propagated
  /// into the simplex solve (options.lp.trace) when that is unset.
  obs::TraceSession* trace = nullptr;
};

/// The LP relaxation's optimal value (a lower bound on OPT), with the
/// fractional solution.
struct LpRelaxation {
  double lower_bound = 0.0;
  std::vector<double> x;  // per set, in [0, 1]
};

Result<LpRelaxation> SolveScwscRelaxation(const SetSystem& system,
                                          std::size_t k,
                                          double coverage_fraction,
                                          const LpOptions& options = {});

struct LpRoundingResult {
  /// Cheapest coverage-feasible rounded solution (after greedy repair).
  Solution solution;
  double lp_lower_bound = 0.0;
  /// max(0, |solution| - k): the §III cardinality violation.
  std::size_t cardinality_violation = 0;
  /// Trials that met coverage without repair.
  std::size_t feasible_trials = 0;
  /// Full-system set scans across rounding trials and greedy repair.
  std::size_t sets_considered = 0;
};

/// Rounds the relaxation. Always returns a coverage-feasible solution when
/// the instance is coverable at all (greedy repair as a fallback); the
/// cardinality constraint is soft, as §III warns. The repair walks the
/// index's seed heap.
Result<LpRoundingResult> SolveByLpRounding(const SolveIndex& index,
                                           const LpScwscOptions& options);

/// SolveByLpRounding over a private SolveIndex of `system`.
Result<LpRoundingResult> SolveByLpRounding(const SetSystem& system,
                                           const LpScwscOptions& options);

}  // namespace lp
}  // namespace scwsc

#endif  // SCWSC_LP_LP_ROUNDING_H_
