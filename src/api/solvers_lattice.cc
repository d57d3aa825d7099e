// Registry adapter for the lattice solvers: Figs. 3-4 over the flat pattern
// lattice (opt-cwsc, opt-cmc) and over the lattice induced by attribute
// hierarchies (hcwsc, hcmc). They run directly over the snapshot's Table
// and never trigger the full pattern enumeration — that is their reason to
// exist.

#include <type_traits>
#include <utility>

#include "src/api/adapter_util.h"
#include "src/api/registry.h"
#include "src/hierarchy/hcmc.h"
#include "src/hierarchy/hcwsc.h"
#include "src/pattern/opt_cmc.h"
#include "src/pattern/opt_cwsc.h"

namespace scwsc {
namespace api {
namespace internal {

void LinkLatticeSolvers() {}  // anchor referenced by SolverRegistry::Global()

}  // namespace internal

namespace {

using internal::CmcContract;
using internal::CmcOptionsFromRequest;
using internal::CwscContract;
using internal::FinishLatticeBacked;
using internal::TimeAndFinish;

/// Builds the CWSC or CMC options and contract from the request, runs
/// `kRun` and audits its solution or its best-so-far partial.
template <typename Options, typename Solution,
          Result<Solution> (*kRun)(const InstanceSnapshot&, const Options&,
                                   pattern::PatternStats*)>
class LatticeSolver : public Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    const std::size_t rows = request.instance->table().num_rows();
    Options options;
    SolveContract contract;
    if constexpr (std::is_same_v<Options, CmcOptions>) {
      SCWSC_ASSIGN_OR_RETURN(options,
                             CmcOptionsFromRequest(request, run_context));
      contract = CmcContract(options, rows);
    } else {
      options = CwscOptions(request.k, request.coverage_fraction);
      options.run_context = run_context;
      contract = CwscContract(request, rows);
    }
    options.trace = request.trace;

    pattern::PatternStats stats;
    return TimeAndFinish(
        [&] { return kRun(*request.instance, options, &stats); },
        [&](Solution solution, double seconds) {
          SolveCounters counters;
          counters.sets_considered = stats.patterns_considered;
          counters.budget_rounds = stats.budget_rounds;
          counters.final_budget = stats.final_budget;
          return FinishLatticeBacked(request, std::move(solution), seconds,
                                     contract, counters);
        });
  }
};

Result<pattern::PatternSolution> OptCwsc(const InstanceSnapshot& instance,
                                         const CwscOptions& options,
                                         pattern::PatternStats* stats) {
  return pattern::RunOptimizedCwsc(instance.table(), instance.cost_fn(),
                                   options, stats);
}
Result<pattern::PatternSolution> OptCmc(const InstanceSnapshot& instance,
                                        const CmcOptions& options,
                                        pattern::PatternStats* stats) {
  return pattern::RunOptimizedCmc(instance.table(), instance.cost_fn(),
                                  options, stats);
}
Result<hierarchy::HSolution> Hcwsc(const InstanceSnapshot& instance,
                                   const CwscOptions& options,
                                   pattern::PatternStats* stats) {
  return hierarchy::RunHierarchicalCwsc(instance.table(), instance.hierarchy(),
                                        instance.cost_fn(), options, stats);
}
Result<hierarchy::HSolution> Hcmc(const InstanceSnapshot& instance,
                                  const CmcOptions& options,
                                  pattern::PatternStats* stats) {
  return hierarchy::RunHierarchicalCmc(instance.table(), instance.hierarchy(),
                                       instance.cost_fn(), options, stats);
}

using OptCwscSolver =
    LatticeSolver<CwscOptions, pattern::PatternSolution, &OptCwsc>;
using OptCmcSolver = LatticeSolver<CmcOptions, pattern::PatternSolution,
                                   &OptCmc>;
using HcwscSolver = LatticeSolver<CwscOptions, hierarchy::HSolution, &Hcwsc>;
using HcmcSolver = LatticeSolver<CmcOptions, hierarchy::HSolution, &Hcmc>;

SCWSC_REGISTER_SOLVER(
    OptCwscSolver,
    SolverInfo{"opt-cwsc",
               "Lattice-optimized CWSC over a patterned table (Fig. 3)",
               kNeedsTable | kSupportsAnytime,
               {}});
SCWSC_REGISTER_SOLVER(
    OptCmcSolver,
    SolverInfo{"opt-cmc",
               "Lattice-optimized CMC over a patterned table (Fig. 4)",
               kNeedsTable | kSupportsAnytime,
               internal::CmcOptionsSpec()});
SCWSC_REGISTER_SOLVER(
    HcwscSolver,
    SolverInfo{"hcwsc",
               "Hierarchical lattice-optimized CWSC (needs hierarchies)",
               kNeedsTable | kNeedsHierarchy | kSupportsAnytime,
               {}});
SCWSC_REGISTER_SOLVER(
    HcmcSolver,
    SolverInfo{"hcmc",
               "Hierarchical lattice-optimized CMC (needs hierarchies)",
               kNeedsTable | kNeedsHierarchy | kSupportsAnytime,
               internal::CmcOptionsSpec()});

}  // namespace
}  // namespace api
}  // namespace scwsc
