#include "src/core/cmc.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/core/benefit_engine.h"
#include "src/core/greedy_state.h"
#include "src/core/solve_index.h"
#include "src/obs/trace.h"

namespace scwsc {

std::size_t CmcCoverageTarget(double fraction, std::size_t n, bool relax) {
  const double eff = relax ? (1.0 - 1.0 / M_E) * fraction : fraction;
  return SetSystem::CoverageTarget(eff, n);
}

double CmcInitialBudget(const SetSystem& system, std::size_t k) {
  double budget = system.KCheapestCost(k);
  if (budget <= 0.0) {
    // All of the k cheapest sets are free. Seed the schedule with the
    // smallest positive cost so the budget can grow; if every set is free
    // the single B = 0 round already has all sets in its cheap level.
    double min_positive = 0.0;
    for (const auto& s : system.sets()) {
      if (s.cost > 0.0 && (min_positive == 0.0 || s.cost < min_positive)) {
        min_positive = s.cost;
      }
    }
    budget = min_positive;  // stays 0 when every set is free
  }
  return budget;
}

std::vector<CostLevel> BuildCmcLevels(double budget, std::size_t k,
                                      double epsilon, unsigned l) {
  SCWSC_CHECK(k >= 1, "k must be positive");
  SCWSC_CHECK(l >= 1, "l must be positive");
  const double base = 1.0 + static_cast<double>(l);
  std::vector<CostLevel> levels;

  if (epsilon == 0.0) {
    // Original structure (Fig. 1 lines 07-10): geometric levels with
    // capacities base^i down to cost B/k, then one cheap level with
    // capacity k. L = ceil(log_base k) geometric levels.
    double hi = budget;
    double capacity = base;
    // Level i spans (B/base^i, B/base^{i-1}], clamped below at B/k.
    const double floor_cost = budget / static_cast<double>(k);
    while (hi > floor_cost &&
           hi > 0.0) {  // hi == floor_cost means geometric levels are done
      double lo = std::max(hi / base, floor_cost);
      levels.push_back(CostLevel{lo, hi, static_cast<std::size_t>(capacity),
                                 /*closed_at_lo=*/false});
      hi = lo;
      capacity *= base;
    }
    levels.push_back(CostLevel{0.0, hi, k, /*closed_at_lo=*/true});
    return levels;
  }

  // Merged-level variant (§V-A3): create geometric levels while their total
  // capacity stays within epsilon * k, then one cheap level with capacity k.
  const double allowance = epsilon * static_cast<double>(k);
  double hi = budget;
  double capacity = base;
  double used = 0.0;
  while (used + capacity <= allowance && hi > 0.0) {
    levels.push_back(CostLevel{hi / base, hi, static_cast<std::size_t>(capacity),
                               /*closed_at_lo=*/false});
    used += capacity;
    hi /= base;
    capacity *= base;
  }
  levels.push_back(CostLevel{0.0, hi, k, /*closed_at_lo=*/true});
  return levels;
}

int LevelOf(const std::vector<CostLevel>& levels, double cost) {
  if (levels.empty() || cost > levels.front().hi) return -1;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const CostLevel& lv = levels[i];
    if (cost <= lv.hi && (cost > lv.lo || (lv.closed_at_lo && cost >= 0.0))) {
      return static_cast<int>(i);
    }
  }
  return -1;  // unreachable for cost in [0, budget]
}

std::size_t CmcMaxSelectable(std::size_t k, double epsilon, unsigned l) {
  // Budget value does not affect capacities; any positive budget works.
  auto levels = BuildCmcLevels(1.0, k, epsilon, l);
  std::size_t total = 0;
  for (const auto& lv : levels) total += lv.capacity;
  return total;
}

Result<CmcResult> RunCmc(const SolveIndex& index, const CmcOptions& options) {
  const SetSystem& system = index.system();
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.l == 0) return Status::InvalidArgument("l must be positive");
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  if (options.b <= 0.0) {
    return Status::InvalidArgument("budget growth b must be positive");
  }
  if (options.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }

  const std::size_t target = CmcCoverageTarget(
      options.coverage_fraction, system.num_elements(), options.relax_coverage);

  CmcResult result;
  if (target == 0) {
    result.budget_rounds = 0;
    return result;
  }
  if (system.num_sets() == 0) {
    return Status::Infeasible("CMC: empty set collection");
  }

  const double total_cost = system.TotalCost();
  double budget = CmcInitialBudget(system, options.k);

  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  BenefitEngine engine(index, &ctx, options.trace);

  obs::Span cmc_span(options.trace, "cmc");
  obs::MetricCounter* picks_metric = nullptr;
  obs::MetricCounter* levels_metric = nullptr;
  if (options.trace != nullptr) {
    picks_metric = &options.trace->metrics().counter("cmc.picks");
    levels_metric = &options.trace->metrics().counter("cmc.levels");
  }

  // `partial` must arrive with `covered` already correct (the engine may be
  // mid-round or reset, so the helper cannot recompute it).
  auto interrupted = [&](TripKind trip, Solution partial) -> Status {
    partial.provenance.trip = trip;
    partial.provenance.sets_chosen = partial.sets.size();
    partial.provenance.coverage_reached = partial.covered;
    partial.provenance.budget_level = budget;
    CmcResult partial_result = result;  // rounds / considered counts so far
    partial_result.solution = std::move(partial);
    partial_result.final_budget = budget;
    return TripStatus(trip, "cmc").WithPayload(std::move(partial_result));
  };

  // Each round restarts from the empty selection, so the previous round's
  // (insufficient) cover is the best-so-far for a trip between rounds.
  Solution last_round;
  std::vector<std::size_t> level_counts;
  bool final_round = budget >= total_cost;
  for (std::size_t round = 1; round <= options.max_budget_rounds; ++round) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip, std::move(last_round));
    }
    result.budget_rounds = round;
    // Fig. 1 lines 04-05 recompute the marginal benefit of every set at the
    // start of each round; that is the unoptimized "patterns considered"
    // accounting of Fig. 6.
    result.sets_considered += system.num_sets();
    obs::Span round_span(options.trace, "cmc.round");

    const auto levels =
        BuildCmcLevels(budget, options.k, options.epsilon, options.l);
    if (levels_metric != nullptr) levels_metric->Increment(levels.size());

    // Bucket the sets at or below budget into their levels.
    std::vector<std::vector<SetId>> members(levels.size());
    for (SetId id = 0; id < system.num_sets(); ++id) {
      const int lv = LevelOf(levels, system.set(id).cost);
      if (lv >= 0) members[static_cast<std::size_t>(lv)].push_back(id);
    }

    engine.Reset();
    Solution solution;
    std::size_t rem = target;

    for (std::size_t li = 0; li < levels.size() && rem > 0; ++li) {
      // Rebucketing scan: (re-)evaluate every member's marginal in one
      // batch against the coverage of the levels above.
      if (!engine.BatchMarginals(members[li], level_counts).ok()) {
        solution.covered = engine.covered_count();
        return interrupted(ctx.tripped(), std::move(solution));
      }
      LazySelector selector;
      for (std::size_t j = 0; j < members[li].size(); ++j) {
        if (level_counts[j] > 0) {
          const SetId id = members[li][j];
          selector.Push(MakeBenefitKey(level_counts[j], system.set(id).cost,
                                       id));
        }
      }
      for (std::size_t picks = 0; picks < levels[li].capacity && rem > 0;
           ++picks) {
        if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
          solution.covered = engine.covered_count();
          return interrupted(trip, std::move(solution));
        }
        auto key = selector.Pop([&](SetId id) -> std::optional<SelectionKey> {
          const std::size_t count = engine.MarginalCount(id);
          if (count == 0) return std::nullopt;
          return MakeBenefitKey(count, system.set(id).cost, id);
        });
        if (!key.has_value()) break;  // Fig. 1 line 18
        const std::size_t newly = engine.Select(key->id);
        if (picks_metric != nullptr) picks_metric->Increment();
        solution.sets.push_back(key->id);
        solution.total_cost += system.set(key->id).cost;
        rem = newly >= rem ? 0 : rem - newly;
      }
    }

    if (rem == 0) {
      solution.covered = engine.covered_count();
      result.solution = std::move(solution);
      result.final_budget = budget;
      return result;
    }
    solution.covered = engine.covered_count();
    last_round = std::move(solution);

    if (final_round) {
      return Status::Infeasible(
          "CMC: coverage target unreachable even with budget = total cost");
    }
    budget *= (1.0 + options.b);
    if (budget == 0.0) {
      // Degenerate all-free system that still failed: no growth possible.
      return Status::Infeasible("CMC: zero-cost system cannot reach target");
    }
    if (budget >= total_cost) {
      // Clamp the last round so that every set is eligible; the paper's
      // loop condition ("until B > total cost") can otherwise end one round
      // short of admitting an expensive universe set.
      budget = total_cost;
      final_round = true;
    }
  }
  return Status::ResourceExhausted("CMC: max_budget_rounds exceeded");
}

Result<CmcResult> RunCmc(const SetSystem& system, const CmcOptions& options) {
  return RunCmc(SolveIndex(system), options);
}

}  // namespace scwsc
