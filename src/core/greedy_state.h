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
// entry is re-pushed when its key has decayed. A SeedHeap holds every set
// at its full size, the marginal of the empty selection (Fig. 2 lines
// 01-04), arranged once as a binary heap; a selector started from it reads
// it in place, so any number of solves share one.

#ifndef SCWSC_CORE_GREEDY_STATE_H_
#define SCWSC_CORE_GREEDY_STATE_H_

#include <cstdint>
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
inline bool BetterByGain(std::size_t count_a, double cost_a, SetId id_a,
                         std::size_t count_b, double cost_b, SetId id_b) {
  if (BetterGain(count_a, cost_a, count_b, cost_b)) return true;
  if (BetterGain(count_b, cost_b, count_a, cost_a)) return false;
  if (count_a != count_b) return count_a > count_b;
  if (cost_a != cost_b) return cost_a < cost_b;
  return id_a < id_b;
}

/// True when a precedes b in the benefit-driven order used by CMC's
/// per-level argmax and max coverage: higher marginal benefit, then lower
/// cost, then lower id.
inline bool BetterByBenefit(std::size_t count_a, double cost_a, SetId id_a,
                            std::size_t count_b, double cost_b, SetId id_b) {
  if (count_a != count_b) return count_a > count_b;
  if (cost_a != cost_b) return cost_a < cost_b;
  return id_a < id_b;
}

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

/// Every non-empty set's key against the empty selection (its size, cost
/// and id) in one selection order, arranged by std::make_heap in O(m): the
/// best key sits at position 0 and the keys under position p at 2p+1 and
/// 2p+2. Immutable once built, so concurrent selectors may share it.
class SeedHeap {
 public:
  SeedHeap(const SetSystem& system, SelectionKey::Kind kind);

  /// The key at heap position `pos` < size().
  SelectionKey Key(std::size_t pos) const {
    const Entry& e = entries_[pos];
    return SelectionKey{kind_, e.size, e.cost, e.id};
  }
  std::size_t size() const { return entries_.size(); }
  /// Sets the heap was built from, empty ones included.
  std::size_t num_sets() const { return num_sets_; }

 private:
  struct Entry {
    std::uint32_t size;  // set sizes are bounded by n < 2^32
    SetId id;
    double cost;
  };
  static_assert(sizeof(Entry) == 16);

  SelectionKey::Kind kind_;
  std::size_t num_sets_;
  std::vector<Entry> entries_;
};

/// Lazy-greedy max selector. Candidates come from a shared SeedHeap and from
/// Push; Pop() returns the candidate whose *current* key (as told by
/// `refresh`) is maximal. `refresh` must never report a key greater than any
/// previously reported key for the same id (monotone decay), which all
/// marginal-benefit style keys satisfy.
///
/// The seed heap is walked, not copied: a frontier queue holds the heap
/// positions whose parents have been taken (taking p exposes 2p+1 and
/// 2p+2), and the best of the frontier and of the re-queue heap is the best
/// key held, so keys come out in exactly the order of one heap holding
/// them all. A solve that takes t seeds touches O(t) of them.
class LazySelector {
 public:
  /// An empty selector; candidates arrive through Push.
  LazySelector() = default;

  /// A selector holding every key of `seeds`, which must outlive it. Adds
  /// seeds.num_sets() to `sets_considered`: the m evaluations of Fig. 2's
  /// initial MBen pass (the Fig. 6 accounting), which the sizes answer.
  LazySelector(const SeedHeap& seeds, std::size_t& sets_considered);

  void Push(SelectionKey key) { requeued_.push(key); }

  bool empty() const { return frontier_.empty() && requeued_.empty(); }

  /// Pops the candidate with the maximal current key. `refresh(id)` returns
  /// the candidate's current key, or nullopt when the candidate is no longer
  /// eligible (e.g. zero marginal benefit) and should be discarded.
  template <typename RefreshFn>
  std::optional<SelectionKey> Pop(RefreshFn&& refresh) {
    while (!empty()) {
      const SelectionKey top = TakeBest();
      std::optional<SelectionKey> current = refresh(top.id);
      if (!current.has_value()) continue;  // dropped
      if (*current == top) return top;     // key is fresh: true argmax
      // Key decayed; re-queue at its current value. By monotone decay the
      // re-queued key is <= top, so the heap order stays consistent.
      requeued_.push(*current);
    }
    return std::nullopt;
  }

 private:
  /// Orders frontier positions by the seed keys they hold.
  struct FrontierLess {
    const SeedHeap* seeds;
    bool operator()(std::size_t a, std::size_t b) const {
      return seeds->Key(a) < seeds->Key(b);
    }
  };

  /// Removes and returns the best key held. Requires !empty().
  SelectionKey TakeBest();

  const SeedHeap* seeds_ = nullptr;
  std::priority_queue<std::size_t, std::vector<std::size_t>, FrontierLess>
      frontier_;
  std::priority_queue<SelectionKey> requeued_;
};

}  // namespace scwsc

#endif  // SCWSC_CORE_GREEDY_STATE_H_
