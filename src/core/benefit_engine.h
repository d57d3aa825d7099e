// BenefitEngine: the single marginal-benefit substrate behind every greedy
// solver (CMC, CWSC, the baselines, LP rounding repair).
//
// The engine owns the covered-element state of one greedy run and answers
// |MBen(s, S)| — the number of elements of s not yet covered by the current
// selection S — under the strategy chosen by EngineOptions:
//
//  * eager mode maintains every count by inverted-index decrements at
//    selection time (the seed CoverState behaviour), over an index it
//    builds at construction;
//  * lazy mode recomputes a count only when it is read and its cached value
//    predates the current coverage epoch. Coverage only grows and counts
//    only shrink (submodularity), so a cached value is always an upper
//    bound — exactly the invariant CELF/lazy-greedy selection needs.
//
// Membership is stored per set either as the SetSystem's sorted element
// list or as a packed uint64 row (chosen per set by a density heuristic in
// kAuto mode): a recount is then a word-wise AND-NOT popcount against the
// covered words instead of an element-by-element bit-test walk, and a
// selection ORs the row into the covered words.

#ifndef SCWSC_CORE_BENEFIT_ENGINE_H_
#define SCWSC_CORE_BENEFIT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/run_context.h"
#include "src/common/thread_pool.h"
#include "src/core/engine_options.h"
#include "src/core/set_system.h"

namespace scwsc {

namespace obs {
class MetricCounter;
}  // namespace obs

class BenefitEngine {
 public:
  /// `run_context` (nullptr = unlimited) meters lazy recounts against the
  /// element-recount budget and lets BatchMarginals observe deadlines and
  /// cancellation between parallel chunks. Counts returned while untripped
  /// are always exact, so an unlimited context changes no behaviour.
  explicit BenefitEngine(const SetSystem& system,
                         const EngineOptions& options = EngineOptions(),
                         const RunContext* run_context = nullptr);

  /// Resets to the empty selection (all marginals back to |Ben(s)|).
  void Reset();

  /// Exact |MBen(s, S)| for the current selection S. Lazy mode may recompute
  /// and cache; eager mode is a read.
  std::size_t MarginalCount(SetId id);

  /// An upper bound on |MBen(s, S)| that never recounts: the cached count
  /// (exact in eager mode). Counts only shrink, so a selector may reject a
  /// set on this bound alone.
  std::size_t UpperBound(SetId id) const { return count_[id]; }

  /// Marks `id` selected: covers its elements and (eager mode) updates every
  /// other marginal count. Returns the number of newly covered elements.
  std::size_t Select(SetId id);

  /// Exact marginal counts for ids[0..n), evaluated in deterministic
  /// parallel chunks when the engine has threads. out[i] corresponds to
  /// ids[i]. Duplicate ids are allowed.
  ///
  /// On a RunContext trip (before or during the batch) the remaining slots
  /// are filled from the cached counts — still valid CELF upper bounds —
  /// the cache commit is skipped so no stale value is stamped fresh, and
  /// the matching interruption Status is returned; callers should stop
  /// selecting and surrender their partial solution. Also propagates
  /// Status::Internal if a pool task throws.
  Status BatchMarginals(const std::vector<SetId>& ids,
                        std::vector<std::size_t>& out);

  std::size_t covered_count() const { return covered_.count(); }
  bool IsCovered(ElementId e) const { return covered_.test(e); }
  const DynamicBitset& covered() const { return covered_; }

  const EngineOptions& options() const { return options_; }

  /// True when `id`'s membership is materialized as a packed bitset row
  /// (introspection for tests and the density-heuristic bench).
  bool UsesBitsetRow(SetId id) const {
    return !row_of_.empty() && row_of_[id] != kNoRow;
  }

  /// The pool used for batch evaluation (size 1 when serial); shared with
  /// callers that have their own independent chunked scans.
  ThreadPool& pool();

 private:
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  /// Recomputes |MBen(id)| against the covered words (no cache access).
  std::size_t Recount(SetId id) const;

  const SetSystem& system_;
  EngineOptions options_;
  const RunContext* ctx_;  // never null; defaults to RunContext::Unlimited()
  DynamicBitset covered_;

  /// Eager: exact live counts. Lazy: cached counts, valid iff the set's
  /// stamp equals the current coverage epoch (covered_.count(); a selection
  /// that covers nothing new changes no marginal, so the epoch is sound).
  std::vector<std::size_t> count_;
  std::vector<std::size_t> stamp_;  // lazy only

  /// Eager only: element -> sets containing it, built at construction.
  std::vector<std::vector<SetId>> inverted_;

  /// Packed membership rows for dense sets, kNoRow-indexed via row_of_.
  std::size_t words_per_row_ = 0;
  std::vector<std::uint32_t> row_of_;
  std::vector<std::uint64_t> rows_;

  std::unique_ptr<ThreadPool> pool_;  // created on first use

  /// Metric instruments resolved once at construction when
  /// options.trace != nullptr; hot paths then update lock-free atomics
  /// behind one pointer branch.
  obs::MetricCounter* celf_hits_ = nullptr;
  obs::MetricCounter* celf_misses_ = nullptr;
  obs::MetricCounter* batch_scans_ = nullptr;
  obs::MetricCounter* batch_chunks_ = nullptr;
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
