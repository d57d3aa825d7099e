// Shared machinery for the greedy solvers.
//
// The selection comparators BetterByGain / BetterByBenefit define the one
// deterministic candidate order used everywhere: by the literal Fig. 1/2
// reference implementations, by CWSC's qualified-argmax, and by the
// SelectionKey heap keys of the lazy selectors. Gains are compared exactly
// (cross-multiplied, via BetterGain), never as rounded doubles, so every
// engine configuration resolves ties identically.
//
// LazySelector implements the classic lazy-greedy (CELF) trick for argmax
// selection under keys that only decrease over time (marginal benefit
// counts and marginal gains are both non-increasing as coverage grows, by
// submodularity): keys are heap-ordered as of their push time, and a popped
// entry is re-pushed when its key has decayed. SeedBySize fills a selector
// with every set at its full size, the marginal of the empty selection.

#ifndef SCWSC_CORE_GREEDY_STATE_H_
#define SCWSC_CORE_GREEDY_STATE_H_

#include <optional>
#include <queue>
#include <vector>

#include "src/core/set_system.h"

namespace scwsc {

/// True when candidate a = (count_a, cost_a, id_a) precedes candidate b in
/// the gain-driven selection order shared by CWSC, the weighted baselines
/// and the literal Fig. 2 engine: higher marginal gain count/cost (compared
/// exactly by cross-multiplication; zero cost = infinite gain), then higher
/// marginal benefit, then lower cost, then lower id.
bool BetterByGain(std::size_t count_a, double cost_a, SetId id_a,
                  std::size_t count_b, double cost_b, SetId id_b);

/// True when a precedes b in the benefit-driven order used by CMC's
/// per-level argmax and max coverage: higher marginal benefit, then lower
/// cost, then lower id.
bool BetterByBenefit(std::size_t count_a, double cost_a, SetId id_a,
                     std::size_t count_b, double cost_b, SetId id_b);

/// Priority key for greedy selection. A key carries the candidate's current
/// marginal count, its (fixed) cost and id, and which of the two shared
/// selection orders applies; operator< delegates to that order, so a heap
/// of keys pops candidates exactly as the linear-scan argmax would visit
/// them.
struct SelectionKey {
  enum class Kind : unsigned char { kBenefit, kGain };

  Kind kind = Kind::kBenefit;
  std::size_t count = 0;
  double cost = 0.0;
  SetId id = kInvalidSet;

  bool operator<(const SelectionKey& other) const {
    // a < b iff b is the better candidate; both orders end on the id
    // tie-break, so this is a strict total order per kind.
    if (kind == Kind::kGain) {
      return BetterByGain(other.count, other.cost, other.id, count, cost, id);
    }
    return BetterByBenefit(other.count, other.cost, other.id, count, cost,
                           id);
  }
  bool operator==(const SelectionKey& other) const {
    return kind == other.kind && count == other.count && cost == other.cost &&
           id == other.id;
  }
};

/// Key for benefit-maximizing selection (CMC levels, max coverage).
SelectionKey MakeBenefitKey(std::size_t count, double cost, SetId id);

/// Key for gain-maximizing selection (weighted set cover, budgeted MC).
SelectionKey MakeGainKey(std::size_t count, double cost, SetId id);

/// Lazy-greedy max selector. Push every candidate once with its initial key;
/// Pop() returns the candidate whose *current* key (as told by `refresh`) is
/// maximal. `refresh` must never report a key greater than any previously
/// reported key for the same id (monotone decay), which all marginal-benefit
/// style keys satisfy.
class LazySelector {
 public:
  void Push(SelectionKey key) { heap_.push(key); }

  bool empty() const { return heap_.empty(); }

  /// Pops the candidate with the maximal current key. `refresh(id)` returns
  /// the candidate's current key, or nullopt when the candidate is no longer
  /// eligible (e.g. zero marginal benefit) and should be discarded.
  template <typename RefreshFn>
  std::optional<SelectionKey> Pop(RefreshFn&& refresh) {
    while (!heap_.empty()) {
      SelectionKey top = heap_.top();
      heap_.pop();
      std::optional<SelectionKey> current = refresh(top.id);
      if (!current.has_value()) continue;  // dropped
      if (*current == top) return top;     // key is fresh: true argmax
      // Key decayed; re-queue at its current value. By monotone decay the
      // re-queued key is <= top, so the heap order stays consistent.
      heap_.push(*current);
    }
    return std::nullopt;
  }

 private:
  std::priority_queue<SelectionKey> heap_;
};

/// Pushes make_key(|s|, Cost(s), id) for every non-empty set — each set's
/// marginal against the empty selection, so no engine read is needed — and
/// adds the m initial evaluations to `sets_considered` (the Fig. 6
/// accounting of the initial MBen pass).
template <typename KeyMaker>
void SeedBySize(const SetSystem& system, LazySelector& selector,
                std::size_t& sets_considered, KeyMaker&& make_key) {
  for (SetId id = 0; id < system.num_sets(); ++id) {
    const WeightedSet& set = system.set(id);
    if (!set.elements.empty()) {
      selector.Push(make_key(set.elements.size(), set.cost, id));
    }
  }
  sets_considered += system.num_sets();
}

}  // namespace scwsc

#endif  // SCWSC_CORE_GREEDY_STATE_H_
