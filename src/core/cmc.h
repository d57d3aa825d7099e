// CMC — Cheap Max Coverage (paper Fig. 1, §V-A).
//
// CMC guesses the optimal cost B (starting at the sum of the k cheapest
// sets, growing geometrically by 1+b), partitions the sets at or below B
// into cost levels, and greedily max-covers level by level with a per-level
// pick allowance. With the original levels (epsilon = 0) it selects at most
// 5k sets; with the merged-level variant (§V-A3, epsilon > 0) at most
// (1+epsilon)k sets. The generalized variant (§V-A2 closing paragraph) uses
// geometric base (1+l) instead of 2.
//
// Guarantees (Theorems 4/5): coverage at least (1 - 1/e)·ŝ·|T| and cost at
// most (1+b)(2·log k + 1)·OPT, resp. O(((1+b)/ε)·log k·OPT).
//
// RunCmc evaluates marginals through one BenefitEngine, reset per budget
// round: each level's members are recounted in one batch and drained from a
// lazy (CELF) heap. RunCmcLiteral (literal.h) is the line-by-line reference
// it must match.

#ifndef SCWSC_CORE_CMC_H_
#define SCWSC_CORE_CMC_H_

#include <vector>

#include "src/common/result.h"
#include "src/core/solution.h"

namespace scwsc {

namespace obs {
class TraceSession;
}  // namespace obs

struct CmcOptions {
  /// Maximum solution size the caller asked for (k in the paper). The
  /// algorithm may use up to 5k sets (epsilon = 0) or (1+epsilon)k sets.
  std::size_t k = 10;
  /// Desired coverage fraction ŝ in [0, 1].
  double coverage_fraction = 0.3;
  /// Budget growth factor: B is multiplied by (1 + b) each round.
  double b = 1.0;
  /// 0 = original Fig. 1 level structure (up to 5k sets);
  /// > 0 = merged levels targeting at most (1 + epsilon)k sets (§V-A3).
  double epsilon = 0.0;
  /// Generalized level base 1+l (§V-A2): l = 1 reproduces powers of two.
  unsigned l = 1;
  /// Fig. 1 line 06 targets only (1 - 1/e)·ŝ·|T| elements, matching the
  /// greedy max-coverage guarantee. Set false to target the full ŝ·|T|
  /// (still sound: the budget keeps growing until the universe set fits).
  bool relax_coverage = true;
  /// Safety valve on the number of budget-doubling rounds.
  std::size_t max_budget_rounds = 256;
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  /// On a trip the solver returns the matching error Status carrying a
  /// partial CmcResult payload: the in-progress round's solution (or the
  /// last completed round's, for a trip between rounds) with
  /// provenance.budget_level = the budget B being explored.
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs); nullptr = observability off.
  /// The solver's benefit engine records into the same session.
  obs::TraceSession* trace = nullptr;
};

/// One CMC cost level: sets with Cost in (lo, hi] — except the cheapest
/// level, which is closed at zero ([0, hi]) so zero-cost sets are usable —
/// from which at most `capacity` sets may be chosen.
struct CostLevel {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t capacity = 0;
  bool closed_at_lo = false;  // true only for the cheapest level
};

/// Builds the level structure for budget B (Fig. 1 lines 07-10, or the
/// merged variant when epsilon > 0, with geometric base 1+l). Levels are
/// ordered from most expensive (index 0) to cheapest, partitioning [0, B].
std::vector<CostLevel> BuildCmcLevels(double budget, std::size_t k,
                                      double epsilon, unsigned l);

/// Index into `levels` of the level containing `cost`, or -1 when cost
/// exceeds the budget (levels[0].hi).
int LevelOf(const std::vector<CostLevel>& levels, double cost);

/// Maximum number of sets a CMC run with these options may select
/// (Σ level capacities): 5k - 2 for epsilon = 0, at most (1+epsilon)k
/// otherwise.
std::size_t CmcMaxSelectable(std::size_t k, double epsilon, unsigned l);

/// The coverage target a CMC-family run aims for: the least integer
/// reaching (1 - 1/e)·fraction·n when `relax` is set (Fig. 1 line 06),
/// fraction·n otherwise. Shared by every CMC variant (generic, literal,
/// lattice-optimized, hierarchical) so they chase the same bar.
std::size_t CmcCoverageTarget(double fraction, std::size_t n, bool relax);

/// The initial budget of the Fig. 1 schedule: the cost of the k cheapest
/// sets, bumped to the smallest positive cost when that sum is zero (so a
/// geometric schedule can grow). Shared by RunCmc and RunCmcLiteral so the
/// two explore identical budget sequences.
double CmcInitialBudget(const SetSystem& system, std::size_t k);

struct CmcResult {
  Solution solution;
  /// Number of budget values tried (Fig. 1 repeat rounds).
  std::size_t budget_rounds = 0;
  /// The budget B of the successful round.
  double final_budget = 0.0;
  /// Total candidate evaluations across rounds; in the patterned-unoptimized
  /// setting this is the "patterns considered" series of Fig. 6.
  std::size_t sets_considered = 0;
};

/// Runs CMC. Returns Infeasible when even the final budget round (B >= total
/// cost of all sets) cannot meet the (possibly relaxed) coverage target —
/// impossible when the system contains a universe set.
Result<CmcResult> RunCmc(const SetSystem& system, const CmcOptions& options);

}  // namespace scwsc

#endif  // SCWSC_CORE_CMC_H_
