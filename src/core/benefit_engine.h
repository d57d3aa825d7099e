// BenefitEngine: the single marginal-benefit substrate behind every greedy
// solver (CMC, CWSC, the baselines, LP rounding repair).
//
// The engine owns the covered-element state of one greedy run and answers
// |MBen(s, S)| — the number of elements of s not yet covered by the current
// selection S. A count is recomputed only when it is read and its cached
// value predates the current coverage epoch. Coverage only grows and counts
// only shrink (submodularity), so a cached value is always an upper bound —
// exactly the invariant CELF/lazy-greedy selection needs.
//
// Membership is stored per set by density: a set holding at least one
// element per 64-bit word of the universe (|s| * 64 >= n) gets a packed
// uint64 row, so a recount is a word-wise AND-NOT popcount against the
// covered words and a selection ORs the row into them; sparser sets keep
// the SetSystem's sorted element list and an element-by-element bit-test
// walk, which is then the shorter of the two.

#ifndef SCWSC_CORE_BENEFIT_ENGINE_H_
#define SCWSC_CORE_BENEFIT_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/run_context.h"
#include "src/core/set_system.h"

namespace scwsc {

namespace obs {
class MetricCounter;
class TraceSession;
}  // namespace obs

class BenefitEngine {
 public:
  /// `run_context` (nullptr = unlimited) meters recounts against the
  /// element-recount budget and lets BatchMarginals observe deadlines and
  /// cancellation. Counts returned while untripped are always exact, so an
  /// unlimited context changes no behaviour. `trace` (nullptr = off)
  /// receives the engine's CELF hit/miss and batch counters.
  explicit BenefitEngine(const SetSystem& system,
                         const RunContext* run_context = nullptr,
                         obs::TraceSession* trace = nullptr);

  /// Resets to the empty selection (all marginals back to |Ben(s)|).
  void Reset();

  /// Exact |MBen(s, S)| for the current selection S; recounts and caches
  /// when the cached value predates the current coverage epoch.
  std::size_t MarginalCount(SetId id);

  /// An upper bound on |MBen(s, S)| that never recounts: the cached count.
  /// Counts only shrink, so a selector may reject a set on this bound alone.
  std::size_t UpperBound(SetId id) const { return count_[id]; }

  /// Marks `id` selected and covers its elements. Returns the number of
  /// newly covered elements.
  std::size_t Select(SetId id);

  /// Exact marginal counts for ids[0..n), in order; out[i] corresponds to
  /// ids[i]. Duplicate ids are allowed.
  ///
  /// The context is checked once up front and each recount is charged to
  /// it. On a trip the remaining slots are filled from the cached counts —
  /// still valid CELF upper bounds — the cache commit is skipped so no stale
  /// value is stamped fresh, and the matching interruption Status is
  /// returned; callers should stop selecting and surrender their partial
  /// solution.
  Status BatchMarginals(const std::vector<SetId>& ids,
                        std::vector<std::size_t>& out);

  std::size_t covered_count() const { return covered_.count(); }
  bool IsCovered(ElementId e) const { return covered_.test(e); }
  const DynamicBitset& covered() const { return covered_; }

  /// True when `id`'s membership is materialized as a packed bitset row
  /// (introspection for tests of the density rule).
  bool UsesBitsetRow(SetId id) const { return row_of_[id] != kNoRow; }

 private:
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  /// Recomputes |MBen(id)| against the covered words (no cache access).
  std::size_t Recount(SetId id) const;

  const SetSystem& system_;
  const RunContext* ctx_;  // never null; defaults to RunContext::Unlimited()
  DynamicBitset covered_;

  /// Cached counts, valid iff the set's stamp equals the current coverage
  /// epoch (covered_.count(); a selection that covers nothing new changes
  /// no marginal, so the epoch is sound).
  std::vector<std::size_t> count_;
  std::vector<std::size_t> stamp_;

  /// Packed membership rows for dense sets, kNoRow-indexed via row_of_.
  std::size_t words_per_row_ = 0;
  std::vector<std::uint32_t> row_of_;
  std::vector<std::uint64_t> rows_;

  /// Metric instruments resolved once at construction when a trace session
  /// is given; hot paths then update lock-free atomics behind one pointer
  /// branch.
  obs::MetricCounter* celf_hits_ = nullptr;
  obs::MetricCounter* celf_misses_ = nullptr;
  obs::MetricCounter* batch_scans_ = nullptr;
};

/// Removes every id whose bit is set in `covered` from each list, preserving
/// relative order — the posting-list form of marginal-benefit revalidation
/// used by the lattice CWSC descent (Fig. 3 lines 27-30, "update MBen").
///
/// `run_context` (nullptr = unlimited) is checked once, before any list is
/// touched: a tripped context leaves every list unfiltered (a stale but
/// valid superset) and returns the interruption Status.
Status FilterCoveredIds(const DynamicBitset& covered,
                        const std::vector<std::vector<std::uint32_t>*>& lists,
                        const RunContext* run_context = nullptr);

}  // namespace scwsc

#endif  // SCWSC_CORE_BENEFIT_ENGINE_H_
