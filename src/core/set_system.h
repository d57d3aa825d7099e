// SetSystem: the generic input of size-constrained weighted set cover.
//
// A SetSystem is a universe of n elements plus a collection of weighted sets
// over them (paper §II, Definition 1). Sets are immutable once added;
// element lists are stored sorted and deduplicated so that benefit counting
// and auditing are deterministic. The patterned special case materializes a
// SetSystem via pattern::PatternSystem; the generic algorithms (CMC, CWSC,
// baselines, exact solver) all consume this type.

#ifndef SCWSC_CORE_SET_SYSTEM_H_
#define SCWSC_CORE_SET_SYSTEM_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace scwsc {

using ElementId = std::uint32_t;
using SetId = std::uint32_t;

inline constexpr SetId kInvalidSet = std::numeric_limits<SetId>::max();

/// One weighted set: its covered elements (Ben(s)) and its cost.
struct WeightedSet {
  std::vector<ElementId> elements;  // sorted, unique
  double cost = 0.0;
  std::string label;  // optional human-readable name ("P16", a pattern, ...)
};

class SetSystem {
 public:
  /// Creates a system over universe {0, ..., num_elements-1}.
  explicit SetSystem(std::size_t num_elements);

  // Move-only: a SetSystem can hold millions of element ids, and every
  // accidental copy of one used to be a silent multi-megabyte clone. Share
  // one instance via api::InstanceSnapshot, or Clone() explicitly in the
  // rare place that really wants a duplicate.
  SetSystem(const SetSystem&) = delete;
  SetSystem& operator=(const SetSystem&) = delete;
  SetSystem(SetSystem&&) = default;
  SetSystem& operator=(SetSystem&&) = default;

  /// An explicit deep copy, for the call sites (mutation experiments,
  /// perturbation harnesses) that genuinely need their own instance.
  SetSystem Clone() const;

  /// Adds a set; elements are sorted/deduplicated (a strictly increasing
  /// list is kept as is, without a sort), must be < num_elements(),
  /// and cost must be non-negative and finite — NaN, negative, and infinite
  /// costs are rejected with InvalidArgument, as is a (finite) cost that
  /// would overflow the running Σ-cost to infinity (TotalCost() anchors the
  /// CMC budget schedule and must stay finite). Returns the new SetId.
  Result<SetId> AddSet(std::vector<ElementId> elements, double cost,
                       std::string label = "");

  std::size_t num_elements() const { return num_elements_; }
  std::size_t num_sets() const { return sets_.size(); }

  const WeightedSet& set(SetId id) const { return sets_[id]; }
  const std::vector<WeightedSet>& sets() const { return sets_; }

  /// Sum of all set costs (the CMC budget loop's termination bound).
  double TotalCost() const;

  /// Sum of the costs of the k cheapest sets (the CMC initial budget,
  /// Fig. 1 line 01). k is clamped to num_sets().
  double KCheapestCost(std::size_t k) const;

  /// True if some single set covers every element (Definition 1 requires one
  /// so a feasible solution always exists).
  bool HasUniverseSet() const;

  /// element -> ascending ids of the sets containing it, built afresh on
  /// every call (O(num_elements + total set size)) and owned by the caller.
  /// The system keeps no index of its own, so snapshots never pay for one;
  /// the LP relaxation builds its own per solve.
  std::vector<std::vector<SetId>> BuildInvertedIndex() const;

  /// Number of elements that must be covered to reach coverage fraction
  /// `fraction` over `n` elements: the least integer m with m >= fraction*n,
  /// computed robustly against floating-point dust (so 9/16 of 16 is 9, not
  /// 10).
  static std::size_t CoverageTarget(double fraction, std::size_t n);

 private:
  std::size_t num_elements_;
  std::vector<WeightedSet> sets_;
  double total_cost_ = 0.0;  // running Σ-cost, kept finite by AddSet
};

/// True when gain a (= count_a / cost_a) beats gain b, compared exactly by
/// cross-multiplication so zero costs and ties are handled without
/// divisions or infinities. Zero-cost sets have infinite gain; two zero-cost
/// sets compare by count.
bool BetterGain(std::size_t count_a, double cost_a, std::size_t count_b,
                double cost_b);

}  // namespace scwsc

#endif  // SCWSC_CORE_SET_SYSTEM_H_
