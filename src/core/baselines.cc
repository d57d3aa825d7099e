#include "src/core/baselines.h"

#include "src/core/benefit_engine.h"
#include "src/core/greedy_state.h"
#include "src/core/solve_index.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace {

/// The greedy weighted set cover loop: selects the set with the highest
/// marginal gain |MBen(s)|/Cost(s) until `target` elements are covered or no
/// set adds coverage; the returned covered count tells which. Errors: a
/// RunContext trip (partial Solution payload) and max_sets reached first.
Result<Solution> GreedyWscLoop(const SolveIndex& index, std::size_t target,
                               const GreedyWscOptions& options,
                               ScanStats& tally) {
  Solution solution;
  if (target == 0) return solution;
  const SetSystem& system = index.system();
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  BenefitEngine state(index, &ctx, options.trace);
  obs::Span span(options.trace, "greedy_wsc");
  LazySelector selector(index.gain_heap(), tally.sets_considered);

  std::size_t rem = target;
  while (rem > 0) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      solution.covered = state.covered_count();
      return InterruptedStatus(trip, "greedy WSC", std::move(solution));
    }
    if (solution.sets.size() >= options.max_sets) {
      return Status::Infeasible("greedy WSC: max_sets reached before target");
    }
    auto key = selector.Pop([&](SetId id) -> std::optional<SelectionKey> {
      ++tally.sets_considered;
      const std::size_t count = state.MarginalCount(id);
      if (count == 0) return std::nullopt;
      return MakeGainKey(count, system.set(id).cost, id);
    });
    if (!key.has_value()) break;  // no set adds coverage
    const std::size_t newly = state.Select(key->id);
    solution.sets.push_back(key->id);
    solution.total_cost += system.set(key->id).cost;
    rem = newly >= rem ? 0 : rem - newly;
  }
  solution.covered = state.covered_count();
  return solution;
}

}  // namespace

Result<Solution> RunGreedyWeightedSetCover(const SolveIndex& index,
                                           const GreedyWscOptions& options,
                                           ScanStats* stats) {
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  const std::size_t target = SetSystem::CoverageTarget(
      options.coverage_fraction, index.system().num_elements());
  ScanStats local_stats;
  ScanStats& tally = stats != nullptr ? *stats : local_stats;
  SCWSC_ASSIGN_OR_RETURN(Solution solution,
                         GreedyWscLoop(index, target, options, tally));
  if (solution.covered < target) {
    return Status::Infeasible("greedy WSC: sets exhausted before target");
  }
  return solution;
}

Result<Solution> RunGreedyWeightedSetCover(const SetSystem& system,
                                           const GreedyWscOptions& options,
                                           ScanStats* stats) {
  return RunGreedyWeightedSetCover(SolveIndex(system), options, stats);
}

Result<Solution> GreedyFullCover(const SolveIndex& index,
                                 const RunContext* run_context) {
  GreedyWscOptions options;
  options.run_context = run_context;
  ScanStats tally;
  return GreedyWscLoop(index, index.system().num_elements(), options, tally);
}

Result<Solution> RunGreedyMaxCoverage(
    const SolveIndex& index, const GreedyMaxCoverageOptions& options,
    ScanStats* stats) {
  const SetSystem& system = index.system();
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.stop_coverage_fraction < 0.0 ||
      options.stop_coverage_fraction > 1.0) {
    return Status::InvalidArgument("stop_coverage_fraction must be in [0, 1]");
  }
  const std::size_t stop_at = SetSystem::CoverageTarget(
      options.stop_coverage_fraction, system.num_elements());

  Solution solution;
  ScanStats local_stats;
  ScanStats& tally = stats != nullptr ? *stats : local_stats;
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  BenefitEngine state(index, &ctx, options.trace);
  obs::Span span(options.trace, "greedy_max_coverage");
  const SeedHeap seeds(system, SelectionKey::Kind::kBenefit);
  LazySelector selector(seeds, tally.sets_considered);

  while (solution.sets.size() < options.k && state.covered_count() < stop_at) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      solution.covered = state.covered_count();
      return InterruptedStatus(trip, "greedy max-coverage",
                               std::move(solution));
    }
    auto key = selector.Pop([&](SetId id) -> std::optional<SelectionKey> {
      ++tally.sets_considered;
      const std::size_t count = state.MarginalCount(id);
      if (count == 0) return std::nullopt;
      return MakeBenefitKey(count, system.set(id).cost, id);
    });
    if (!key.has_value()) break;  // nothing adds coverage
    state.Select(key->id);
    solution.sets.push_back(key->id);
    solution.total_cost += system.set(key->id).cost;
  }
  solution.covered = state.covered_count();
  return solution;
}

Result<Solution> RunGreedyMaxCoverage(
    const SetSystem& system, const GreedyMaxCoverageOptions& options,
    ScanStats* stats) {
  return RunGreedyMaxCoverage(SolveIndex(system), options, stats);
}

Result<Solution> RunBudgetedMaxCoverage(
    const SolveIndex& index, const BudgetedMaxCoverageOptions& options,
    ScanStats* stats) {
  if (options.budget < 0.0) {
    return Status::InvalidArgument("budget must be >= 0");
  }
  const SetSystem& system = index.system();
  Solution solution;
  ScanStats local_stats;
  ScanStats& tally = stats != nullptr ? *stats : local_stats;
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  BenefitEngine state(index, &ctx, options.trace);
  obs::Span span(options.trace, "budgeted_max_coverage");
  double remaining = options.budget;

  // The greedy of [11] considers, in each step, only sets that still fit in
  // the remaining budget. Both filters decay monotonically — gains shrink
  // with coverage and the remaining budget only decreases, so a set that no
  // longer fits can be discarded permanently — which keeps the lazy
  // selector sound.
  LazySelector selector(index.gain_heap(), tally.sets_considered);

  while (solution.sets.size() < options.max_sets) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      solution.covered = state.covered_count();
      return InterruptedStatus(trip, "budgeted max-coverage",
                               std::move(solution));
    }
    auto key = selector.Pop([&](SetId id) -> std::optional<SelectionKey> {
      ++tally.sets_considered;
      const std::size_t count = state.MarginalCount(id);
      if (count == 0) return std::nullopt;
      if (system.set(id).cost > remaining) return std::nullopt;  // never fits again
      return MakeGainKey(count, system.set(id).cost, id);
    });
    if (!key.has_value()) break;
    const double cost = system.set(key->id).cost;
    state.Select(key->id);
    remaining -= cost;
    solution.sets.push_back(key->id);
    solution.total_cost += cost;
  }
  solution.covered = state.covered_count();
  return solution;
}

Result<Solution> RunBudgetedMaxCoverage(
    const SetSystem& system, const BudgetedMaxCoverageOptions& options,
    ScanStats* stats) {
  return RunBudgetedMaxCoverage(SolveIndex(system), options, stats);
}

}  // namespace scwsc
