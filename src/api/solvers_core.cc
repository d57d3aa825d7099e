// Registry adapters for the core set-system algorithms: CWSC/CMC (tuned and
// literal), the three prior-work baselines, the exact branch-and-bound and
// the non-overlapping (AlphaSum-style) greedy.

#include <limits>
#include <utility>

#include "src/api/adapter_util.h"
#include "src/api/registry.h"
#include "src/core/baselines.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/exact.h"
#include "src/core/literal.h"
#include "src/core/nonoverlap.h"
#include "src/core/solve_index.h"

namespace scwsc {
namespace api {
namespace internal {

void LinkCoreSolvers() {}  // anchor referenced by SolverRegistry::Global()

}  // namespace internal

namespace {

using internal::CmcContract;
using internal::CmcOptionsFromRequest;
using internal::CmcOptionsSpec;
using internal::CwscContract;
using internal::FinishSetBacked;
using internal::TimeAndFinish;

/// Times `runner(&stats)` — a greedy scan over the instance's set-system
/// view or solve index, which the caller fetched first — and finishes its
/// Solution with the ScanStats tally as counters.sets_considered.
template <typename Runner>
Result<SolveResult> SolveScan(const SolveRequest& request,
                              SolveContract contract, Runner runner) {
  ScanStats stats;
  return TimeAndFinish(
      [&] { return runner(&stats); },
      [&](Solution solution, double seconds) {
        SolveCounters counters;
        counters.sets_considered = stats.sets_considered;
        return FinishSetBacked(request, std::move(solution), seconds,
                               contract, counters);
      });
}

// --- CWSC (Fig. 2), tuned and literal -------------------------------------

/// CwscOptions from the request's universal fields.
CwscOptions CwscOptionsFromRequest(const SolveRequest& request,
                                   const RunContext* run_context) {
  CwscOptions options(request.k, request.coverage_fraction);
  options.run_context = run_context;
  options.trace = request.trace;
  return options;
}

class CwscSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                           request.instance->solve_index(request.trace));
    const CwscOptions options = CwscOptionsFromRequest(request, run_context);
    return SolveScan(request,
                     CwscContract(request, request.instance->num_elements()),
                     [&](ScanStats* stats) {
                       return RunCwsc(*index, options, stats);
                     });
  }
};
SCWSC_REGISTER_SOLVER(
    CwscSolver,
    SolverInfo{"cwsc",
               "Concise Weighted Set Cover (Fig. 2), tuned engine",
               kNeedsSetSystem | kSupportsAnytime,
               {}});

class CwscLiteralSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SetSystem* system,
                           request.instance->set_system());
    const CwscOptions options = CwscOptionsFromRequest(request, run_context);
    return SolveScan(request,
                     CwscContract(request, request.instance->num_elements()),
                     [&](ScanStats* stats) {
                       return RunCwscLiteral(*system, options, stats);
                     });
  }
};
SCWSC_REGISTER_SOLVER(
    CwscLiteralSolver,
    SolverInfo{"cwsc-literal",
               "CWSC, paper-verbatim reference (Fig. 2 line by line)",
               kNeedsSetSystem | kSupportsAnytime,
               {}});

// --- CMC (Fig. 1), tuned and literal --------------------------------------

/// Times `runner(options)` — a CMC variant over the instance's set-system
/// view or solve index, fetched first by the caller — and finishes its
/// outcome.
template <typename Runner>
Result<SolveResult> SolveCmcLike(const SolveRequest& request,
                                 const RunContext* run_context,
                                 Runner runner) {
  SCWSC_ASSIGN_OR_RETURN(CmcOptions options,
                         CmcOptionsFromRequest(request, run_context));
  options.trace = request.trace;
  const SolveContract contract =
      CmcContract(options, request.instance->num_elements());
  return TimeAndFinish([&] { return runner(options); },
                       [&](CmcResult result, double seconds) {
                         SolveCounters counters;
                         counters.budget_rounds = result.budget_rounds;
                         counters.final_budget = result.final_budget;
                         counters.sets_considered = result.sets_considered;
                         return FinishSetBacked(request,
                                                std::move(result.solution),
                                                seconds, contract, counters);
                       });
}

class CmcSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                           request.instance->solve_index(request.trace));
    return SolveCmcLike(request, run_context,
                        [index](const CmcOptions& options) {
                          return RunCmc(*index, options);
                        });
  }
};
SCWSC_REGISTER_SOLVER(CmcSolver,
                      SolverInfo{"cmc",
                                 "Cheap Max Coverage (Fig. 1), tuned engine",
                                 kNeedsSetSystem | kSupportsAnytime,
                                 CmcOptionsSpec()});

class CmcLiteralSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SetSystem* system,
                           request.instance->set_system());
    return SolveCmcLike(request, run_context,
                        [system](const CmcOptions& options) {
                          return RunCmcLiteral(*system, options);
                        });
  }
};
SCWSC_REGISTER_SOLVER(
    CmcLiteralSolver,
    SolverInfo{"cmc-literal",
               "CMC, paper-verbatim reference (Fig. 1 line by line)",
               kNeedsSetSystem | kSupportsAnytime,
               CmcOptionsSpec()});

// --- prior-work baselines (§III, §VI-C) -----------------------------------

class GreedyWscSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                           request.instance->solve_index(request.trace));
    GreedyWscOptions options;
    options.coverage_fraction = request.coverage_fraction;
    // Deliberately ignores request.k: the baseline's point is that it does
    // not bound the solution size (Table VI). An explicit cap is opt-in.
    SCWSC_ASSIGN_OR_RETURN(options.max_sets,
                           request.options.GetU64("max_sets",
                                                  options.max_sets));
    options.run_context = run_context;
    options.trace = request.trace;
    SolveContract contract;
    contract.max_sets =
        options.max_sets == std::numeric_limits<std::size_t>::max()
            ? 0  // unbounded: no size promise
            : options.max_sets;
    contract.coverage_target = SetSystem::CoverageTarget(
        request.coverage_fraction, request.instance->num_elements());
    return SolveScan(request, contract, [&](ScanStats* stats) {
      return RunGreedyWeightedSetCover(*index, options, stats);
    });
  }
};
SCWSC_REGISTER_SOLVER(
    GreedyWscSolver,
    SolverInfo{"greedy-wsc",
               "Greedy partial weighted set cover baseline (unbounded size)",
               kNeedsSetSystem | kSupportsAnytime,
               {{"max_sets", OptionType::kU64, "18446744073709551615",
                 "opt-in cap on selected sets (default: unbounded)", false}}});

class GreedyMaxCoverageSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                           request.instance->solve_index(request.trace));
    GreedyMaxCoverageOptions options;
    options.k = request.k;
    SCWSC_ASSIGN_OR_RETURN(
        options.stop_coverage_fraction,
        request.options.GetDouble("stop_coverage",
                                  options.stop_coverage_fraction));
    options.run_context = run_context;
    options.trace = request.trace;
    // Bounded size, no coverage promise: that cost/coverage blow-up is the
    // §VI-C comparison.
    SolveContract contract{request.k, 0};
    return SolveScan(request, contract, [&](ScanStats* stats) {
      return RunGreedyMaxCoverage(*index, options, stats);
    });
  }
};
SCWSC_REGISTER_SOLVER(
    GreedyMaxCoverageSolver,
    SolverInfo{"greedy-max-coverage",
               "Greedy partial maximum coverage baseline (cost-blind)",
               kNeedsSetSystem | kSupportsAnytime,
               {{"stop_coverage", OptionType::kDouble, "1",
                 "coverage fraction at which to stop early", false}}});

class BudgetedMaxCoverageSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                           request.instance->solve_index(request.trace));
    if (!request.options.Has("budget")) {
      return Status::InvalidArgument(
          "solver 'budgeted-max-coverage' requires the option budget=<W> "
          "(total cost budget)");
    }
    BudgetedMaxCoverageOptions options;
    SCWSC_ASSIGN_OR_RETURN(options.budget,
                           request.options.GetDouble("budget", 0.0));
    SCWSC_ASSIGN_OR_RETURN(options.max_sets,
                           request.options.GetU64("max_sets",
                                                  options.max_sets));
    options.run_context = run_context;
    options.trace = request.trace;
    SolveContract contract;
    contract.max_sets =
        options.max_sets == std::numeric_limits<std::size_t>::max()
            ? 0
            : options.max_sets;
    return SolveScan(request, contract, [&](ScanStats* stats) {
      return RunBudgetedMaxCoverage(*index, options, stats);
    });
  }
};
SCWSC_REGISTER_SOLVER(
    BudgetedMaxCoverageSolver,
    SolverInfo{"budgeted-max-coverage",
               "Greedy budgeted maximum coverage baseline (needs budget=W)",
               kNeedsSetSystem | kSupportsAnytime,
               {{"budget", OptionType::kDouble, "",
                 "total cost budget W (required)", true},
                {"max_sets", OptionType::kU64, "18446744073709551615",
                 "opt-in cap on selected sets (default: unbounded)", false}}});

// --- exact branch-and-bound (§VI-D) ---------------------------------------

class ExactSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    SCWSC_ASSIGN_OR_RETURN(const SetSystem* system,
                           request.instance->set_system());
    ExactOptions options;
    options.k = request.k;
    options.coverage_fraction = request.coverage_fraction;
    SCWSC_ASSIGN_OR_RETURN(options.max_nodes,
                           request.options.GetU64("max_nodes",
                                                  options.max_nodes));
    options.run_context = run_context;
    options.trace = request.trace;
    const SolveContract contract =
        CwscContract(request, system->num_elements());
    return TimeAndFinish(
        [&] { return SolveExact(*system, options); },
        [&](ExactResult result, double seconds) {
          SolveCounters counters;
          counters.nodes = result.nodes;
          // Each expanded node weighs exactly one candidate set.
          counters.sets_considered = static_cast<std::size_t>(result.nodes);
          return FinishSetBacked(request, std::move(result.solution), seconds,
                                 contract, counters);
        });
  }
};
SCWSC_REGISTER_SOLVER(
    ExactSolver,
    SolverInfo{"exact",
               "Exact branch-and-bound (optimal; small instances only)",
               kNeedsSetSystem | kSupportsAnytime | kExact,
               {{"max_nodes", OptionType::kU64, "200000000",
                 "node budget for the branch-and-bound search", false}}});

// --- non-overlapping greedy (§III, AlphaSum constraint) -------------------

class NonOverlapSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    (void)run_context;  // the disjoint greedy has no interruption points
    SCWSC_ASSIGN_OR_RETURN(const SetSystem* system,
                           request.instance->set_system());
    NonOverlapOptions options;
    options.k = request.k;
    options.coverage_fraction = request.coverage_fraction;
    SCWSC_ASSIGN_OR_RETURN(options.best_effort,
                           request.options.GetBool("best_effort",
                                                   options.best_effort));
    SCWSC_ASSIGN_OR_RETURN(std::string rule,
                           request.options.GetString("rule", "gain"));
    if (rule == "gain") {
      options.rule = NonOverlapOptions::Rule::kGain;
    } else if (rule == "benefit") {
      options.rule = NonOverlapOptions::Rule::kBenefit;
    } else {
      return Status::InvalidArgument("option rule='" + rule +
                                     "' is neither 'gain' nor 'benefit'");
    }
    options.trace = request.trace;
    SolveContract contract;
    contract.max_sets = request.k;
    contract.coverage_target =
        options.best_effort ? 0
                            : SetSystem::CoverageTarget(
                                  request.coverage_fraction,
                                  system->num_elements());
    return SolveScan(request, contract, [&](ScanStats* stats) {
      return RunNonOverlappingGreedy(*system, options, stats);
    });
  }
};
SCWSC_REGISTER_SOLVER(
    NonOverlapSolver,
    SolverInfo{"nonoverlap",
               "Greedy under the AlphaSum disjointness constraint (§III)",
               kNeedsSetSystem,
               {{"best_effort", OptionType::kBool, "false",
                 "return the best disjoint cover found even if infeasible",
                 false},
                {"rule", OptionType::kString, "gain",
                 "selection rule: 'gain' or 'benefit'", false}}});

}  // namespace
}  // namespace api
}  // namespace scwsc
