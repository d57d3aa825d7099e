#include "src/core/literal.h"

#include <algorithm>
#include <cmath>

#include "src/common/bitset.h"
#include "src/core/greedy_state.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace {

/// Fig. 1 lines 24-27 / Fig. 2 lines 12-15: subtract the selected set's
/// marginal benefit from every remaining set by an explicit scan, dropping
/// sets whose marginal benefit becomes empty.
void SubtractEverywhere(const std::vector<ElementId>& chosen_mben,
                        std::size_t num_elements,
                        std::vector<std::vector<ElementId>>& mben,
                        std::vector<bool>& alive) {
  DynamicBitset removed(num_elements);
  for (ElementId e : chosen_mben) removed.set(e);
  for (SetId s = 0; s < mben.size(); ++s) {
    if (!alive[s]) continue;
    auto& m = mben[s];
    m.erase(std::remove_if(m.begin(), m.end(),
                           [&](ElementId e) { return removed.test(e); }),
            m.end());
    if (m.empty()) alive[s] = false;
  }
}

}  // namespace

Result<Solution> RunCwscLiteral(const SetSystem& system,
                                const CwscOptions& options, ScanStats* stats) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  std::size_t rem = SetSystem::CoverageTarget(options.coverage_fraction,
                                              system.num_elements());
  Solution solution;
  if (rem == 0) return solution;

  // Lines 03-04: compute MBen(s) for every set.
  std::vector<std::vector<ElementId>> mben;
  mben.reserve(system.num_sets());
  for (const auto& s : system.sets()) mben.push_back(s.elements);
  std::vector<bool> alive(system.num_sets(), true);

  ScanStats local_stats;
  ScanStats& tally = stats != nullptr ? *stats : local_stats;
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  obs::Span span(options.trace, "cwsc.literal");
  for (std::size_t i = options.k; i >= 1; --i) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return InterruptedStatus(trip, "cwsc (literal)", std::move(solution));
    }
    // Line 06: argmax gain among sets with |MBen| >= rem / i.
    SetId best = kInvalidSet;
    for (SetId s = 0; s < system.num_sets(); ++s) {
      if (!alive[s]) continue;
      ++tally.sets_considered;
      if (!MeetsCwscThreshold(mben[s].size(), i, rem)) continue;
      if (best == kInvalidSet ||
          BetterByGain(mben[s].size(), system.set(s).cost, s,
                       mben[best].size(), system.set(best).cost, best)) {
        best = s;
      }
    }
    if (best == kInvalidSet) {
      return Status::Infeasible("CWSC (literal): no qualified set");
    }
    const std::size_t newly = mben[best].size();
    solution.sets.push_back(best);
    solution.total_cost += system.set(best).cost;
    solution.covered += newly;
    alive[best] = false;
    rem = newly >= rem ? 0 : rem - newly;
    if (rem == 0) return solution;
    SubtractEverywhere(mben[best], system.num_elements(), mben, alive);
  }
  return Status::Internal("CWSC (literal) exhausted k picks");
}

Result<CmcResult> RunCmcLiteral(const SetSystem& system,
                                const CmcOptions& options) {
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
  if (target == 0) return result;
  if (system.num_sets() == 0) {
    return Status::Infeasible("CMC (literal): empty set collection");
  }

  const double total_cost = system.TotalCost();
  double budget = CmcInitialBudget(system, options.k);
  bool final_round = budget >= total_cost;

  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  auto interrupted = [&](TripKind trip, Solution partial) -> Status {
    partial.provenance.trip = trip;
    partial.provenance.sets_chosen = partial.sets.size();
    partial.provenance.coverage_reached = partial.covered;
    partial.provenance.budget_level = budget;
    CmcResult partial_result = result;
    partial_result.solution = std::move(partial);
    partial_result.final_budget = budget;
    return TripStatus(trip, "cmc (literal)").WithPayload(
        std::move(partial_result));
  };
  Solution last_round;

  obs::Span span(options.trace, "cmc.literal");
  for (std::size_t round = 1; round <= options.max_budget_rounds; ++round) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip, std::move(last_round));
    }
    result.budget_rounds = round;
    result.sets_considered += system.num_sets();

    // Lines 04-05: recompute every marginal benefit from scratch.
    std::vector<std::vector<ElementId>> mben;
    mben.reserve(system.num_sets());
    for (const auto& s : system.sets()) mben.push_back(s.elements);
    std::vector<bool> alive(system.num_sets(), true);

    const auto levels =
        BuildCmcLevels(budget, options.k, options.epsilon, options.l);
    std::vector<int> level_of(system.num_sets());
    for (SetId s = 0; s < system.num_sets(); ++s) {
      level_of[s] = LevelOf(levels, system.set(s).cost);
    }

    Solution solution;
    std::size_t rem = target;

    for (std::size_t li = 0; li < levels.size() && rem > 0; ++li) {
      for (std::size_t picks = 0; picks < levels[li].capacity && rem > 0;
           ++picks) {
        if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
          return interrupted(trip, std::move(solution));
        }
        // Line 17: argmax |MBen| within this level.
        SetId best = kInvalidSet;
        for (SetId s = 0; s < system.num_sets(); ++s) {
          if (!alive[s] || level_of[s] != static_cast<int>(li) ||
              mben[s].empty()) {
            continue;
          }
          if (best == kInvalidSet ||
              BetterByBenefit(mben[s].size(), system.set(s).cost, s,
                              mben[best].size(), system.set(best).cost,
                              best)) {
            best = s;
          }
        }
        if (best == kInvalidSet) break;  // line 18
        const std::size_t newly = mben[best].size();
        solution.sets.push_back(best);
        solution.total_cost += system.set(best).cost;
        solution.covered += newly;
        alive[best] = false;
        rem = newly >= rem ? 0 : rem - newly;
        if (rem == 0) break;
        SubtractEverywhere(mben[best], system.num_elements(), mben, alive);
      }
    }

    if (rem == 0) {
      result.solution = std::move(solution);
      result.final_budget = budget;
      return result;
    }
    last_round = std::move(solution);
    if (final_round) {
      return Status::Infeasible(
          "CMC (literal): coverage target unreachable even with budget = "
          "total cost");
    }
    budget *= (1.0 + options.b);
    if (budget == 0.0) {
      return Status::Infeasible("CMC (literal): zero-cost system");
    }
    if (budget >= total_cost) {
      budget = total_cost;
      final_round = true;
    }
  }
  return Status::ResourceExhausted("CMC (literal): max_budget_rounds exceeded");
}

}  // namespace scwsc
