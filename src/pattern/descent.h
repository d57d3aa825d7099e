// One lattice descent for Fig. 3 (CWSC) and one for Fig. 4 (CMC), shared
// by the flat pattern lattice and the hierarchy lattice of §II's extension.
//
// Both figures descend the lattice from the all-wildcards pattern and admit
// a child only once its parents qualify, which is sound because a child's
// marginal benefit never exceeds a parent's. The lattices differ only in
// what one specialization step is (ALL -> value, or ALL -> root -> ... ->
// leaf), so each descent is a template over a Step that supplies:
//
//   Key, KeyHash, Solution   lattice key, its hash, the output type
//                            (PatternSolution or hierarchy::HSolution)
//   Group                    one grouped child: `attr`, `marginal_rows`
//   Root()                   the all-wildcards key
//   Children(q, mben)        q's children with non-empty MBen, grouped in a
//                            deterministic order; `marginal_rows` is exactly
//                            MBen(child). Charges the run context's node
//                            budget one node per group.
//   Child(q, group)          the child's key
//   IsWildcard(key, attr), Parent(key, attr)
//                            the parents: one per constant attribute
//   RowTest(group)           a predicate on rows of Ben(q): whether the
//                            row lies in Ben(child)
//   Ben(key)                 Ben of a popped key, ascending (CMC costs)
//   Less(a, b)               static; the deterministic key order that
//                            breaks marginal-benefit ties
//   Output(key)              the key as the solution's pattern type

#ifndef SCWSC_PATTERN_DESCENT_H_
#define SCWSC_PATTERN_DESCENT_H_

#include <algorithm>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/common/run_context.h"
#include "src/core/benefit_engine.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pattern/cost.h"
#include "src/pattern/stats.h"

namespace scwsc {
namespace pattern {

/// Span and message names of one solver. They are part of the trace and
/// error surface, so each entry point keeps its own.
struct DescentNames {
  const char* span;   // root span, e.g. "opt_cwsc"
  const char* phase;  // per-iteration (CWSC) or per-round (CMC) span
  const char* what;   // TripStatus operation, e.g. "optimized cwsc"
  const char* error;  // error message prefix, e.g. "optimized CWSC"
};

/// InvalidArgument for out-of-domain options or a table without a measure
/// column; each descent checks its options first.
Status ValidateCwscOptions(const Table& table, const CwscOptions& options);
Status ValidateCmcOptions(const Table& table, const CmcOptions& options);

/// Fig. 4 line 01 seeds B with the cost of the k cheapest patterns, which a
/// lattice descent cannot know without enumerating. This is the lower bound
/// k * (smallest row measure): every pattern covers some row, so under
/// max/sum/lp costs its cost is at least the smallest measure. A lower
/// start only adds cheap early rounds (skipped by the round precheck); the
/// geometric schedule is unchanged. Falls back to the smallest positive
/// measure, then 1, when the bound is not positive.
double CmcBudgetSeed(const Table& table, std::size_t k);

/// The round-feasibility precheck. Every pattern (flat or hierarchical)
/// covering row r also covers all rows identical to r, so its cost is at
/// least the aggregate of r's duplicate group: exactly for max, a lower
/// bound for sum / lp-norms when measures are non-negative. A round with
/// budget B can therefore cover at most |{r : aggregate(r) <= B}| rows.
/// Returns those per-row aggregates sorted, or an empty vector when the
/// bound does not hold (sum / lp over negative measures).
std::vector<double> CoverableThresholds(const Table& table,
                                        const CostFunction& cost_fn);

namespace internal {

/// PatternStats plus the trace's pattern.* counters, bumped together.
class LatticeTally {
 public:
  LatticeTally(PatternStats& stats, obs::TraceSession* trace) : st_(stats) {
    if (trace != nullptr) {
      considered_ = &trace->metrics().counter("pattern.considered");
      admitted_ = &trace->metrics().counter("pattern.admitted");
    }
  }
  void Considered() {
    ++st_.patterns_considered;
    if (considered_ != nullptr) considered_->Increment();
  }
  void Admitted() {
    ++st_.candidates_admitted;
    if (admitted_ != nullptr) admitted_->Increment();
  }

 private:
  PatternStats& st_;
  obs::MetricCounter* considered_ = nullptr;
  obs::MetricCounter* admitted_ = nullptr;
};

/// True when `pred` holds for every parent of `child` except the one on
/// attribute `via`, which is the popped key the child was reached from.
template <typename Step, typename Pred>
bool OtherParentsAll(const Step& step, const typename Step::Key& child,
                     std::size_t via, std::size_t num_attributes, Pred pred) {
  for (std::size_t a = 0; a < num_attributes; ++a) {
    if (a == via || step.IsWildcard(child, a)) continue;
    if (!pred(step.Parent(child, a))) return false;
  }
  return true;
}

}  // namespace internal

/// Fig. 3: the candidate set C holds exactly the patterns whose marginal
/// benefit meets the iteration's threshold rem/i. Provided both break ties
/// identically, this selects the same patterns as CWSC over the fully
/// enumerated system. `stats` (optional) receives the Fig. 6 counters.
template <typename Step>
Result<typename Step::Solution> DescendCwsc(Step& step, const Table& table,
                                            const CostFunction& cost_fn,
                                            const CwscOptions& options,
                                            PatternStats* stats,
                                            const DescentNames& names) {
  using Key = typename Step::Key;
  struct Candidate {
    std::vector<RowId> ben;   // Ben(p): all matching rows
    std::vector<RowId> mben;  // MBen(p): matching rows not yet covered
    double cost = 0.0;
    bool processed = false;   // waitlist flag for the current iteration
  };
  using CandidateMap =
      std::unordered_map<Key, Candidate, typename Step::KeyHash>;
  // Waitlist max-heap by marginal benefit, the key order breaking ties
  // (Fig. 3 line 13). Keys live in the candidate map, whose nodes are
  // stable.
  struct WaitEntry {
    std::size_t count;
    const Key* key;
  };
  auto wait_less = [](const WaitEntry& a, const WaitEntry& b) {
    if (a.count != b.count) return a.count < b.count;
    return Step::Less(*b.key, *a.key);
  };
  // The shared selection order: higher marginal gain, then higher marginal
  // benefit, then lower cost, then the smaller key.
  auto better = [](const typename CandidateMap::value_type& a,
                   const typename CandidateMap::value_type& b) {
    const std::size_t ca = a.second.mben.size();
    const std::size_t cb = b.second.mben.size();
    if (BetterGain(ca, a.second.cost, cb, b.second.cost)) return true;
    if (BetterGain(cb, b.second.cost, ca, a.second.cost)) return false;
    if (ca != cb) return ca > cb;
    if (a.second.cost != b.second.cost) return a.second.cost < b.second.cost;
    return Step::Less(a.first, b.first);
  };

  SCWSC_RETURN_NOT_OK(ValidateCwscOptions(table, options));
  PatternStats local_stats;
  PatternStats& st = stats ? *stats : local_stats;
  st = PatternStats{};

  const std::size_t n = table.num_rows();
  const std::size_t j = table.num_attributes();
  std::size_t rem = SetSystem::CoverageTarget(options.coverage_fraction, n);
  typename Step::Solution solution;
  if (rem == 0) return solution;
  if (n == 0) return Status::Infeasible("empty table with positive target");

  DynamicBitset covered(n);
  obs::Span span(options.trace, names.span);
  internal::LatticeTally tally(st, options.trace);
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  auto interrupted = [&](TripKind trip) -> Status {
    solution.covered = covered.count();
    solution.provenance.trip = trip;
    solution.provenance.sets_chosen = solution.patterns.size();
    solution.provenance.coverage_reached = solution.covered;
    return TripStatus(trip, names.what).WithPayload(solution);
  };
  CandidateMap candidates;
  std::unordered_set<Key, typename Step::KeyHash> selected;

  // Fig. 3 lines 04-06: seed with the all-wildcards pattern.
  {
    Candidate root;
    root.ben.resize(n);
    std::iota(root.ben.begin(), root.ben.end(), RowId{0});
    root.mben = root.ben;
    root.cost = cost_fn.Compute(table, root.ben);
    tally.Considered();
    tally.Admitted();
    candidates.emplace(step.Root(), std::move(root));
  }

  for (std::size_t i = options.k; i >= 1; --i) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip);
    }
    obs::Span descend_span(options.trace, names.phase);
    // Lines 08-10: drop candidates below this iteration's threshold
    // (MeetsCwscThreshold: |MBen| * i >= rem in overflow-free integers).
    for (auto it = candidates.begin(); it != candidates.end();) {
      if (!MeetsCwscThreshold(it->second.mben.size(), i, rem)) {
        it = candidates.erase(it);
      } else {
        it->second.processed = false;
        ++it;
      }
    }

    // Lines 11-20: descend the lattice from the surviving candidates.
    std::priority_queue<WaitEntry, std::vector<WaitEntry>, decltype(wait_less)>
        waitlist;
    for (auto& [key, cand] : candidates) {
      waitlist.push(WaitEntry{cand.mben.size(), &key});
    }
    while (!waitlist.empty()) {
      if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
        return interrupted(trip);
      }
      const WaitEntry top = waitlist.top();
      waitlist.pop();
      auto qit = candidates.find(*top.key);
      if (qit == candidates.end() || qit->second.processed) continue;
      // References into the map survive the rehashes of admissions below.
      const Key& q_key = qit->first;
      Candidate& q = qit->second;
      q.processed = true;

      for (auto& group : step.Children(q_key, q.mben)) {
        Key child = step.Child(q_key, group);
        if (candidates.count(child) || selected.count(child)) continue;
        if (!internal::OtherParentsAll(
                step, child, group.attr, j,
                [&](const Key& parent) { return candidates.count(parent); })) {
          continue;
        }
        // Line 17: MBen and Cost of the child; Ben(child) filters Ben(q).
        Candidate cand;
        cand.ben.reserve(group.marginal_rows.size());
        const auto in_child = step.RowTest(group);
        for (RowId r : q.ben) {
          if (in_child(r)) cand.ben.push_back(r);
        }
        cand.mben = std::move(group.marginal_rows);
        cand.cost = cost_fn.Compute(table, cand.ben);
        tally.Considered();
        // Line 18: admit only when the child meets the threshold.
        if (MeetsCwscThreshold(cand.mben.size(), i, rem)) {
          tally.Admitted();
          auto [it, inserted] =
              candidates.emplace(std::move(child), std::move(cand));
          SCWSC_CHECK(inserted, "candidate admitted twice");
          waitlist.push(WaitEntry{it->second.mben.size(), &it->first});
        }
      }
    }

    // Line 21: select the candidate with the highest marginal gain.
    auto best = candidates.end();
    for (auto it = candidates.begin(); it != candidates.end(); ++it) {
      if (best == candidates.end() || better(*it, *best)) best = it;
    }
    if (best == candidates.end()) {
      return Status::Infeasible(std::string(names.error) +
                                ": no qualified candidate");
    }

    // Lines 23-26: commit the selection.
    descend_span.Event("pick");
    solution.patterns.push_back(step.Output(best->first));
    solution.total_cost += best->second.cost;
    const std::size_t newly = best->second.mben.size();
    for (RowId r : best->second.mben) covered.set(r);
    selected.insert(best->first);
    candidates.erase(best);
    rem = newly >= rem ? 0 : rem - newly;
    solution.covered = covered.count();
    if (rem == 0) return solution;

    // Lines 27-30: refresh marginal benefit sets against the new coverage
    // and drop exhausted candidates.
    std::vector<std::vector<RowId>*> mben_lists;
    mben_lists.reserve(candidates.size());
    for (auto& [key, cand] : candidates) mben_lists.push_back(&cand.mben);
    if (!FilterCoveredIds(covered, mben_lists, &ctx).ok()) {
      return interrupted(ctx.tripped());
    }
    for (auto it = candidates.begin(); it != candidates.end();) {
      if (it->second.mben.empty()) {
        it = candidates.erase(it);
      } else {
        ++it;
      }
    }
  }

  return Status::Internal(std::string(names.error) +
                          " exhausted k picks without meeting coverage");
}

/// Fig. 4: per budget round, the search starts at the all-wildcards pattern
/// and repeatedly pops the candidate with the highest marginal benefit. A
/// candidate whose cost fits the budget and whose cost level still has
/// allowance is selected; otherwise it is marked visited and its children
/// become eligible once all their parents have been visited. Levels and
/// the budget schedule are the generic CMC's (BuildCmcLevels), including
/// the (1+ε)k merged-level variant and the generalized base 1+l. `stats`
/// (optional) receives the Fig. 6 counters summed over budget rounds.
template <typename Step>
Result<typename Step::Solution> DescendCmc(Step& step, const Table& table,
                                           const CostFunction& cost_fn,
                                           const CmcOptions& options,
                                           PatternStats* stats,
                                           const DescentNames& names) {
  using Key = typename Step::Key;
  using Solution = typename Step::Solution;
  struct Candidate {
    std::vector<RowId> mben;
    /// Coverage epoch mben was last filtered against; refreshed lazily at
    /// pop time so selections cost O(pops) instead of O(selections x |C|).
    std::size_t epoch = 0;
    /// Computed on first pop (each pattern pops at most once per round);
    /// admission only needs MBen.
    double cost = 0.0;
    bool cost_known = false;
  };
  struct HeapEntry {
    std::size_t count;
    Key key;
  };
  auto heap_less = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.count != b.count) return a.count < b.count;
    return Step::Less(b.key, a.key);
  };

  SCWSC_RETURN_NOT_OK(ValidateCmcOptions(table, options));
  PatternStats local_stats;
  PatternStats& st = stats ? *stats : local_stats;
  st = PatternStats{};

  const std::size_t n = table.num_rows();
  const std::size_t j = table.num_attributes();
  const std::size_t target =
      CmcCoverageTarget(options.coverage_fraction, n, options.relax_coverage);
  if (target == 0) return Solution{};
  if (n == 0) return Status::Infeasible("empty table with positive target");

  std::vector<RowId> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), RowId{0});
  const double root_cost = cost_fn.Compute(table, all_rows);
  double budget = CmcBudgetSeed(table, options.k);
  // A round whose budget cannot reach the target is skipped without a
  // descent: Fig. 4's early rounds fail after fruitless work, so the
  // outcome is identical and the work is not.
  const std::vector<double> thresholds = CoverableThresholds(table, cost_fn);
  auto coverable_rows = [&](double b) -> std::size_t {
    if (thresholds.empty()) return n;  // bound unavailable
    return static_cast<std::size_t>(
        std::upper_bound(thresholds.begin(), thresholds.end(), b) -
        thresholds.begin());
  };

  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  DynamicBitset covered(n);
  bool final_round = budget >= root_cost;

  // Trips surrender the in-progress round's selection (or the previous
  // round's, between rounds) with the budget level recorded in provenance.
  // `partial` arrives with `covered` already stamped.
  Solution last_round;
  auto interrupted = [&](TripKind trip, Solution partial) -> Status {
    partial.provenance.trip = trip;
    partial.provenance.sets_chosen = partial.patterns.size();
    partial.provenance.coverage_reached = partial.covered;
    partial.provenance.budget_level = budget;
    return TripStatus(trip, names.what).WithPayload(std::move(partial));
  };

  obs::Span cmc_span(options.trace, names.span);
  internal::LatticeTally tally(st, options.trace);

  for (std::size_t round = 1; round <= options.max_budget_rounds; ++round) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip, std::move(last_round));
    }
    st.budget_rounds = round;
    if (coverable_rows(budget) >= target) {
      obs::Span round_span(options.trace, names.phase);
      const auto levels =
          BuildCmcLevels(budget, options.k, options.epsilon, options.l);
      std::size_t total_allowance = 0;
      for (const auto& lv : levels) total_allowance += lv.capacity;

      covered.clear();
      std::size_t rem = target;
      std::unordered_map<Key, Candidate, typename Step::KeyHash> candidates;
      std::unordered_set<Key, typename Step::KeyHash> visited;
      std::unordered_set<Key, typename Step::KeyHash> selected;
      std::vector<std::size_t> level_count(levels.size(), 0);
      std::size_t total_count = 0;
      std::size_t epoch = 0;  // bumped on every selection
      Solution round_solution;

      // Lines 11-13: seed with the all-wildcards pattern.
      tally.Considered();
      tally.Admitted();
      candidates.emplace(step.Root(), Candidate{all_rows, 0, root_cost, true});
      std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                          decltype(heap_less)>
          heap;
      heap.push(HeapEntry{n, step.Root()});

      // Lines 17-35.
      while (!candidates.empty() && total_count <= total_allowance &&
             rem > 0) {
        if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
          round_solution.covered = covered.count();
          return interrupted(trip, std::move(round_solution));
        }
        // Line 18: argmax marginal benefit, via the lazy heap.
        if (heap.empty()) break;
        HeapEntry top = heap.top();
        heap.pop();
        auto qit = candidates.find(top.key);
        if (qit == candidates.end()) continue;  // candidate was erased
        Candidate& cand_ref = qit->second;
        if (cand_ref.epoch != epoch) {
          // Stale coverage: refilter the marginal benefit set lazily.
          auto& m = cand_ref.mben;
          m.erase(std::remove_if(m.begin(), m.end(),
                                 [&](RowId r) { return covered.test(r); }),
                  m.end());
          cand_ref.epoch = epoch;
          if (m.empty()) {
            candidates.erase(qit);  // lines 28-29
            continue;
          }
        }
        if (cand_ref.mben.size() != top.count) {
          // Stale key; marginal benefit only decreases, so re-queue.
          heap.push(HeapEntry{cand_ref.mben.size(), std::move(top.key)});
          continue;
        }

        const Key q_key = std::move(top.key);
        Candidate q = std::move(qit->second);
        candidates.erase(qit);  // line 19
        if (!q.cost_known) q.cost = cost_fn.Compute(table, step.Ben(q_key));

        const int level = LevelOf(levels, q.cost);  // line 20 (-1 = over)
        bool selected_now = false;
        if (level >= 0) {
          // Line 21: every within-budget pop consumes level allowance,
          // selected or not (the pseudocode's ++count[i] <= ki test).
          std::size_t& cnt = level_count[static_cast<std::size_t>(level)];
          ++cnt;
          ++total_count;
          selected_now =
              cnt <= levels[static_cast<std::size_t>(level)].capacity;
        }
        if (selected_now) {
          // Lines 22-29 (candidate refresh happens lazily at pop).
          round_span.Event("pick");
          round_solution.patterns.push_back(step.Output(q_key));
          round_solution.total_cost += q.cost;
          selected.insert(q_key);
          const std::size_t newly = q.mben.size();
          for (RowId r : q.mben) covered.set(r);
          rem = newly >= rem ? 0 : rem - newly;
          ++epoch;
          continue;
        }

        // Lines 30-35: mark visited and admit the children whose parents
        // have all been visited, with their MBen (costs follow on pop).
        visited.insert(q_key);
        for (auto& group : step.Children(q_key, q.mben)) {
          Key child = step.Child(q_key, group);
          if (candidates.count(child) || visited.count(child) ||
              selected.count(child)) {
            continue;
          }
          if (!internal::OtherParentsAll(
                  step, child, group.attr, j,
                  [&](const Key& parent) { return visited.count(parent); })) {
            continue;
          }
          tally.Considered();
          tally.Admitted();
          const std::size_t count = group.marginal_rows.size();
          candidates.emplace(child,
                             Candidate{std::move(group.marginal_rows), epoch});
          heap.push(HeapEntry{count, std::move(child)});
        }
      }

      round_solution.covered = covered.count();
      if (rem == 0) {
        st.final_budget = budget;
        return round_solution;
      }
      last_round = std::move(round_solution);
    }

    if (final_round) {
      return Status::Infeasible(
          std::string(names.error) +
          ": coverage unreachable even at the all-wildcards pattern's cost");
    }
    budget *= (1.0 + options.b);  // line 36
    if (budget >= root_cost) {
      // Clamp the last round at the root's cost so the all-wildcards
      // pattern is always eligible in the final attempt.
      budget = root_cost;
      final_round = true;
    }
  }
  return Status::ResourceExhausted(std::string(names.error) +
                                   ": max_budget_rounds exceeded");
}

}  // namespace pattern
}  // namespace scwsc

#endif  // SCWSC_PATTERN_DESCENT_H_
