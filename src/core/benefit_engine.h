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
// Sharded mode (EngineOptions::num_shards > 1) refines the lazy cache from
// one global coverage epoch to one epoch per element-range shard
// (ShardBounds over the universe, word-aligned). Counts, stamps and
// recounts then live per (set, shard):
//
//  * a selection bumps only the epochs of shards it covered new elements
//    in;
//  * a CELF revalidation recounts only the candidate's slices in those
//    dirtied shards — a candidate disjoint from all recent picks
//    revalidates in O(num_shards) with no element walk at all;
//  * BatchMarginals fans out one task per shard on the pool (each task
//    writes a disjoint output stripe; the cache commit stays serial), so
//    the batch path parallelizes by shard instead of by candidate chunk.
//
// A global pop from a solver's lazy selector therefore "merges" per-shard
// state: the popped candidate's total is the sum of its per-shard counts,
// and only the shards owning recently covered elements are revalidated.
// Every shard count computes the same exact integer totals as the flat
// path, so solver runs stay bit-identical for every num_shards.
//
// Membership is stored per set either as the SetSystem's sorted element
// list or as a packed uint64 row (chosen per set by a density heuristic in
// kAuto mode): a recount is then a word-wise AND-NOT popcount against the
// covered words instead of an element-by-element bit-test walk, and a
// selection ORs the row into the covered words. Word-aligned shard
// boundaries mean a packed row splits into per-shard word ranges exactly.
//
// Chaos: FaultPoint::kShardWorkerLoss models a shard batch worker dying
// mid-scan. A lost shard's stripe is recomputed inline after the fan-out,
// so every BatchMarginals call still returns exact counts — the fault costs
// latency, never correctness (tests/resilience_test.cc proves a storm
// leaves solutions bit-identical).

#ifndef SCWSC_CORE_BENEFIT_ENGINE_H_
#define SCWSC_CORE_BENEFIT_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/run_context.h"
#include "src/common/thread_pool.h"
#include "src/core/engine_options.h"
#include "src/core/set_system.h"
#include "src/core/shard.h"

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
  /// and cache; eager mode is a read. Sharded mode recounts only the set's
  /// slices in shards whose coverage moved since the last read.
  std::size_t MarginalCount(SetId id);

  /// Marks `id` selected: covers its elements and (eager mode) updates every
  /// other marginal count. Returns the number of newly covered elements.
  /// Sharded mode additionally bumps the coverage epoch of exactly the
  /// shards that gained elements.
  std::size_t Select(SetId id);

  /// Exact marginal counts for ids[0..n), evaluated in deterministic
  /// parallel chunks (flat) or per-shard stripes (sharded) when the engine
  /// has threads. out[i] corresponds to ids[i]. Duplicate ids are allowed.
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

  /// Effective shard count (1 = flat; requests are clamped by ShardBounds).
  std::size_t num_shards() const { return num_shards_; }

  /// Covered elements within shard s — the shard's coverage epoch. With a
  /// flat engine the single "shard" is the whole universe.
  std::size_t shard_covered(std::size_t s) const {
    return num_shards_ > 1 ? shard_covered_[s] : covered_.count();
  }

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

  bool sharded() const { return num_shards_ > 1; }

  /// Recomputes |MBen(id)| against the covered words (no cache access).
  std::size_t Recount(SetId id) const;

  /// Recomputes set `id`'s marginal within shard s only: the packed row's
  /// word subrange, or the sorted element list's slice.
  std::size_t RecountSlice(SetId id, std::size_t s) const;

  /// Slice boundaries of set `id` in shard s: offsets into its sorted
  /// element list.
  std::size_t SliceBegin(SetId id, std::size_t s) const {
    return slice_begin_[id * (num_shards_ + 1) + s];
  }

  /// Evaluates shard s of a batch into stripe[i] for every i: cached value
  /// when fresh, recount when stale (charged against `aborted`). Runs on a
  /// pool worker during the fan-out and inline for lost-shard recovery.
  void ComputeShardStripe(std::size_t s, const std::vector<SetId>& ids,
                          std::size_t* stripe, std::atomic<bool>& aborted);

  const SetSystem& system_;
  EngineOptions options_;
  const RunContext* ctx_;  // never null; defaults to RunContext::Unlimited()
  DynamicBitset covered_;

  /// Eager: exact live counts. Lazy: cached counts, valid iff the set's
  /// stamp equals the current coverage epoch (covered_.count(); a selection
  /// that covers nothing new changes no marginal, so the epoch is sound).
  /// Sharded: the last committed per-shard sum — an upper bound used for
  /// trip fallbacks and the zero short-circuit; freshness lives in the
  /// per-shard stamps.
  std::vector<std::size_t> count_;
  std::vector<std::size_t> stamp_;  // flat lazy only

  /// Eager only: element -> sets containing it, built at construction.
  std::vector<std::vector<SetId>> inverted_;

  /// Sharding state (lazy mode with num_shards_ > 1 only). Element bounds
  /// come from ShardBounds (word-aligned); word_bounds_ is the same cut in
  /// packed-row words.
  std::size_t num_shards_ = 1;
  std::vector<std::size_t> bounds_;       // element bounds, size S+1
  std::vector<std::size_t> word_bounds_;  // word bounds, size S+1
  std::vector<std::size_t> shard_covered_;       // per-shard epochs, size S
  std::vector<std::uint32_t> slice_begin_;       // m*(S+1) offsets
  std::vector<std::size_t> shard_count_;         // m*S cached slice counts
  std::vector<std::size_t> shard_stamp_;         // m*S epoch stamps
  std::vector<std::size_t> stripe_scratch_;      // S*|batch| fan-out buffer

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
  obs::MetricCounter* batch_shards_ = nullptr;
  obs::MetricCounter* shard_recoveries_ = nullptr;
};

/// Removes every id whose bit is set in `covered` from each list, preserving
/// relative order — the posting-list form of marginal-benefit revalidation
/// used by the lattice-optimized algorithms (Fig. 3/4 lines "update MBen").
/// Lists are filtered independently, chunk-parallel on `pool` when it has
/// more than one lane, so results are identical for any thread count.
///
/// `run_context` (nullptr = unlimited) is observed between chunks: once
/// tripped, remaining lists are left unfiltered — an unfiltered list is a
/// stale-but-valid superset, so callers that bail out on the returned
/// interruption Status never act on it. Also propagates Status::Internal
/// from a throwing pool task.
Status FilterCoveredIds(const DynamicBitset& covered,
                        const std::vector<std::vector<std::uint32_t>*>& lists,
                        ThreadPool* pool,
                        const RunContext* run_context = nullptr);

}  // namespace scwsc

#endif  // SCWSC_CORE_BENEFIT_ENGINE_H_
