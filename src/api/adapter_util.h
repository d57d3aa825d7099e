// Shared plumbing of the built-in solver adapters (solvers_*.cc): timing
// each run, turning each algorithm's native output (Solution /
// PatternSolution / HSolution) into the uniform SolveResult, and re-issuing
// interruption Statuses with a SolveResult payload so every frontend handles
// best-so-far output through one type.

#ifndef SCWSC_API_ADAPTER_UTIL_H_
#define SCWSC_API_ADAPTER_UTIL_H_

#include <type_traits>
#include <utility>

#include "src/api/solver.h"
#include "src/common/stopwatch.h"
#include "src/core/cmc.h"
#include "src/hierarchy/hcwsc.h"
#include "src/pattern/stats.h"

namespace scwsc {
namespace api {
namespace internal {

/// Builds the SolveResult for a SetId-backed solution: labels from the set
/// system (pattern strings when the instance is a patterned table), audit
/// independently recomputed via AuditSolution. No certificate: the registry
/// adds one after a completed solve when the request asks (`certify`).
Result<SolveResult> FinishSetBacked(const SolveRequest& request,
                                    Solution solution, double seconds,
                                    SolveContract contract,
                                    SolveCounters counters);

/// Builds the SolveResult for a lattice solver's solution, flat
/// (PatternSolution) or hierarchical (HSolution); the lattice solvers never
/// materialize SetIds. The audit re-matches every pattern against the table
/// and re-derives costs from the cost function; a repeated pattern is an
/// InvalidArgument. Only flat patterns are copied to SolveResult::patterns.
template <typename LatticeSolution>
Result<SolveResult> FinishLatticeBacked(const SolveRequest& request,
                                        LatticeSolution solution,
                                        double seconds, SolveContract contract,
                                        SolveCounters counters);

/// Re-issues the interruption `status` carrying `finished` (the converted
/// partial) as a SolveResult payload; falls back to the original status when
/// the conversion itself failed.
Status Rewrap(const Status& status, Result<SolveResult> finished);

/// The shared tail of every adapter. Times `run()`, which returns a
/// Result<Answer>, then passes `finish(Answer, seconds)` the answer, or an
/// interruption's payload of type Answer, whose result is re-issued through
/// Rewrap. Adapters fetch the set-system view or solve index before calling,
/// so neither lazy build counts as solve time.
template <typename Run, typename Finish>
Result<SolveResult> TimeAndFinish(Run run, Finish finish) {
  Stopwatch timer;
  auto answer = run();
  const double seconds = timer.ElapsedSeconds();
  using Answer = std::decay_t<decltype(*answer)>;
  if (!answer.ok()) {
    const Status status = answer.status();
    if (const Answer* partial = status.payload<Answer>()) {
      return Rewrap(status, finish(*partial, seconds));
    }
    return status;
  }
  return finish(*std::move(answer), seconds);
}

/// CmcOptions from the request's universal fields plus the shared CMC
/// option keys: b, epsilon, l, strict, max_budget_rounds.
Result<CmcOptions> CmcOptionsFromRequest(const SolveRequest& request,
                                         const RunContext* run_context);

/// The shared CMC options table (b, epsilon, l, strict, max_budget_rounds),
/// for SolverInfo.
OptionsSpec CmcOptionsSpec();

/// The strict (unrelaxed) CWSC contract: at most k sets covering at least
/// ŝ·`num_elements`.
SolveContract CwscContract(const SolveRequest& request,
                           std::size_t num_elements);

/// The CMC contract: at most CmcMaxSelectable sets covering at least the
/// (possibly relaxed) CmcCoverageTarget of `num_elements`.
SolveContract CmcContract(const CmcOptions& options, std::size_t num_elements);

}  // namespace internal
}  // namespace api
}  // namespace scwsc

#endif  // SCWSC_API_ADAPTER_UTIL_H_
