#include "src/core/cwsc.h"

#include "src/core/benefit_engine.h"
#include "src/core/greedy_state.h"
#include "src/core/solve_index.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace {

/// Fig. 2 line 06 by lazy (CELF) selection: one gain-ordered heap across all
/// iterations. Each iteration pops until the first *fresh* key that meets
/// the threshold |MBen| * i >= rem — every entry still queued has a current
/// key no better (heap order plus monotone decay), so that key is the
/// qualified argmax. Unqualified pops are parked and re-pushed for later
/// iterations: the threshold rem/i is not monotone across iterations (a
/// large pick can lower it), so a set rejected now may qualify later. A pop
/// whose cached upper bound already fails the threshold is parked without a
/// recount. Zero-marginal sets are dropped permanently (counts never grow).
Result<Solution> RunCwscLazy(const SolveIndex& index,
                             const CwscOptions& options, std::size_t rem,
                             const RunContext& ctx, ScanStats& stats) {
  const SetSystem& system = index.system();
  BenefitEngine engine(index, &ctx, options.trace);
  Solution solution;
  LazySelector selector(index.gain_heap(), stats.sets_considered);

  std::vector<SelectionKey> parked;
  obs::Span select_span(options.trace, "cwsc.select");
  for (std::size_t i = options.k; i >= 1; --i) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return InterruptedStatus(trip, "cwsc", std::move(solution));
    }
    // A queued key carries the engine's cached count, an upper bound on the
    // set's marginal. When even that bound fails this iteration's
    // threshold the set cannot qualify, so its key comes back unchanged
    // (Pop returns it and the loop parks it) without a recount.
    auto refresh = [&](SetId id) -> std::optional<SelectionKey> {
      const std::size_t bound = engine.UpperBound(id);
      if (!MeetsCwscThreshold(bound, i, rem)) {
        return MakeGainKey(bound, system.set(id).cost, id);
      }
      ++stats.sets_considered;
      const std::size_t count = engine.MarginalCount(id);
      if (count == 0) return std::nullopt;
      return MakeGainKey(count, system.set(id).cost, id);
    };
    parked.clear();
    std::optional<SelectionKey> chosen;
    while (true) {
      auto key = selector.Pop(refresh);
      if (!key.has_value()) break;
      if (MeetsCwscThreshold(key->count, i, rem)) {
        chosen = key;
        break;
      }
      parked.push_back(*key);  // fresh but below this iteration's threshold
    }
    for (const SelectionKey& key : parked) selector.Push(key);
    if (!chosen.has_value()) {
      return Status::Infeasible(
          "CWSC: no set with marginal benefit >= rem/i (Fig. 2 line 07)");
    }

    // The chosen key was popped and is not re-pushed, so the set leaves the
    // candidate pool for good.
    const std::size_t newly = engine.Select(chosen->id);
    select_span.Event("pick");
    solution.sets.push_back(chosen->id);
    solution.total_cost += system.set(chosen->id).cost;
    solution.covered = engine.covered_count();
    rem = newly >= rem ? 0 : rem - newly;
    if (rem == 0) return solution;
  }

  return Status::Internal("CWSC exhausted k picks without meeting coverage");
}

}  // namespace

Result<Solution> RunCwsc(const SolveIndex& index, const CwscOptions& options,
                         ScanStats* stats) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }

  const std::size_t n = index.system().num_elements();
  const std::size_t rem = SetSystem::CoverageTarget(options.coverage_fraction, n);
  if (rem == 0) return Solution{};  // nothing to cover

  ScanStats local_stats;
  ScanStats& tally = stats != nullptr ? *stats : local_stats;
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  obs::Span span(options.trace, "cwsc");
  Result<Solution> solution = RunCwscLazy(index, options, rem, ctx, tally);
  if (options.trace != nullptr) {
    options.trace->metrics()
        .counter("cwsc.sets_considered")
        .Increment(tally.sets_considered);
  }
  return solution;
}

Result<Solution> RunCwsc(const SetSystem& system, const CwscOptions& options,
                         ScanStats* stats) {
  return RunCwsc(SolveIndex(system), options, stats);
}

}  // namespace scwsc
