// Registry adapter for LP relaxation + randomized rounding (the §III
// integer-programming route, with its certified lower bound and soft
// cardinality constraint).

#include <utility>

#include "src/api/adapter_util.h"
#include "src/api/registry.h"
#include "src/common/stopwatch.h"
#include "src/lp/lp_rounding.h"

namespace scwsc {
namespace api {
namespace internal {

void LinkLpSolvers() {}  // anchor referenced by SolverRegistry::Global()

}  // namespace internal

namespace {

using internal::FinishSetBacked;
using internal::Rewrap;

SolveCounters CountersFromLp(const lp::LpRoundingResult& result) {
  SolveCounters counters;
  counters.lp_lower_bound = result.lp_lower_bound;
  counters.cardinality_violation = result.cardinality_violation;
  counters.feasible_trials = result.feasible_trials;
  counters.sets_considered = result.sets_considered;
  return counters;
}

class LpRoundingSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                           request.instance->solve_index(request.trace));
    lp::LpScwscOptions options;
    options.k = request.k;
    options.coverage_fraction = request.coverage_fraction;
    SCWSC_ASSIGN_OR_RETURN(options.alpha,
                           request.options.GetDouble("alpha", options.alpha));
    SCWSC_ASSIGN_OR_RETURN(options.trials,
                           request.options.GetU64("trials", options.trials));
    SCWSC_ASSIGN_OR_RETURN(options.seed,
                           request.options.GetU64("seed", options.seed));
    options.run_context = run_context;
    options.trace = request.trace;
    // Coverage is guaranteed (greedy repair); the size bound is soft — the
    // §III caveat this solver exists to measure — so max_sets stays 0.
    SolveContract contract;
    contract.coverage_target = SetSystem::CoverageTarget(
        request.coverage_fraction, request.instance->num_elements());

    Stopwatch timer;
    Result<lp::LpRoundingResult> result =
        lp::SolveByLpRounding(*index, options);
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      const Status& status = result.status();
      if (const auto* partial = status.payload<lp::LpRoundingResult>()) {
        return Rewrap(status,
                      FinishSetBacked(request, partial->solution, seconds,
                                      contract, CountersFromLp(*partial)));
      }
      return status;
    }
    const SolveCounters counters = CountersFromLp(*result);
    return FinishSetBacked(request, std::move(result->solution), seconds,
                           contract, counters);
  }
};
SCWSC_REGISTER_SOLVER(
    LpRoundingSolver,
    SolverInfo{"lp-rounding",
               "LP relaxation + randomized rounding with certified bound",
               kNeedsSetSystem | kSupportsAnytime,
               {{"alpha", OptionType::kDouble, "0",
                 "overlap penalty weight in the LP objective", false},
                {"trials", OptionType::kU64, "64",
                 "independent randomized rounding trials", false},
                {"seed", OptionType::kU64, "2015",
                 "PRNG seed for the rounding trials", false}}});

}  // namespace
}  // namespace api
}  // namespace scwsc
