// Baseline heuristics from prior work, reimplemented for the paper's
// comparisons (§III and §VI-C):
//
//  - greedy partial weighted set cover (optimizes cost + coverage; its
//    solution-size blow-up motivates the paper, Table VI),
//  - greedy partial maximum coverage [10] (optimizes coverage + size; its
//    cost blow-up is measured in §VI-C),
//  - greedy budgeted maximum coverage [11] (optimizes coverage + cost; §III
//    constructs an instance where its coverage is arbitrarily poor even when
//    allowed c·k sets).
//
// Each runs on a BenefitEngine with one lazy (CELF) heap seeded from the
// set sizes (SeedBySize).

#ifndef SCWSC_CORE_BASELINES_H_
#define SCWSC_CORE_BASELINES_H_

#include <cstddef>
#include <limits>

#include "src/common/result.h"
#include "src/core/solution.h"

namespace scwsc {

namespace obs {
class TraceSession;
}  // namespace obs

struct GreedyWscOptions {
  /// Desired coverage fraction ŝ.
  double coverage_fraction = 0.3;
  /// Optional cap on solution size (defaults to unbounded — the point of
  /// the baseline is that it does not limit the number of sets).
  std::size_t max_sets = std::numeric_limits<std::size_t>::max();
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  /// On a trip the partial selection travels as the error Status payload.
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs); nullptr = observability off.
  /// The solver's benefit engine records into the same session.
  obs::TraceSession* trace = nullptr;
};

/// Greedy partial weighted set cover: repeatedly select the set with the
/// highest marginal gain |MBen(s)|/Cost(s) until the coverage target is met.
/// Infeasible when the target cannot be met within max_sets (or at all).
/// `stats` (optional) receives the candidate-evaluation tally.
Result<Solution> RunGreedyWeightedSetCover(const SetSystem& system,
                                           const GreedyWscOptions& options,
                                           ScanStats* stats = nullptr);

/// A greedy weighted cover of every element some set contains, in
/// RunGreedyWeightedSetCover's gain order (zero-cost sets first): the
/// selection order whose dual-fitting prices the accuracy certificate
/// scales (core/accuracy.h). Never infeasible; a RunContext trip returns the
/// interruption status with the partial Solution payload.
Result<Solution> GreedyFullCover(const SetSystem& system,
                                 const RunContext* run_context);

struct GreedyMaxCoverageOptions {
  /// Number of sets to select.
  std::size_t k = 10;
  /// Optional early stop once this coverage fraction is reached (1.0 means
  /// "pick all k sets or exhaust positive-benefit sets").
  double stop_coverage_fraction = 1.0;
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs); nullptr = observability off.
  obs::TraceSession* trace = nullptr;
};

/// Greedy partial maximum coverage: select up to k sets with the highest
/// marginal benefit, ignoring cost entirely.
/// `stats` (optional) receives the candidate-evaluation tally.
Result<Solution> RunGreedyMaxCoverage(const SetSystem& system,
                                      const GreedyMaxCoverageOptions& options,
                                      ScanStats* stats = nullptr);

struct BudgetedMaxCoverageOptions {
  /// Total cost budget W.
  double budget = 0.0;
  /// Optional cap on the number of selected sets (§III discusses allowing
  /// c·k sets).
  std::size_t max_sets = std::numeric_limits<std::size_t>::max();
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs); nullptr = observability off.
  obs::TraceSession* trace = nullptr;
};

/// Greedy budgeted maximum coverage [11]: select by marginal gain among sets
/// whose cost still fits in the remaining budget. Never fails; returns the
/// (possibly low-coverage) selection, which is exactly the §III critique.
/// `stats` (optional) receives the candidate-evaluation tally.
Result<Solution> RunBudgetedMaxCoverage(
    const SetSystem& system, const BudgetedMaxCoverageOptions& options,
    ScanStats* stats = nullptr);

}  // namespace scwsc

#endif  // SCWSC_CORE_BASELINES_H_
