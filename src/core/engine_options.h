// EngineOptions: how marginal benefits are represented and re-evaluated.
//
// Every greedy solver in this library spends its time in one primitive —
// "what is |MBen(s, S)| for candidate s against the covered state S" — and
// EngineOptions selects the strategy the BenefitEngine uses for it. All
// strategies compute the exact same integer counts, so every combination
// produces bit-identical solutions (tests/benefit_engine_test.cc proves it);
// only the work profile changes.

#ifndef SCWSC_CORE_ENGINE_OPTIONS_H_
#define SCWSC_CORE_ENGINE_OPTIONS_H_

#include <cstddef>

namespace scwsc {

namespace obs {
class TraceSession;
}  // namespace obs

/// When marginal counts are brought up to date.
enum class MarginalMode : unsigned char {
  /// Selecting a set immediately decrements the marginal count of every
  /// other set containing a newly covered element (inverted-index walk).
  /// Reads are O(1); each selection pays the full decrement storm. This is
  /// the seed implementation's behaviour and the reference configuration.
  kEager,
  /// Selecting a set only marks its elements covered; a set's count is
  /// recomputed against the covered state on demand and cached until the
  /// coverage epoch moves. By submodularity counts only decrease, so CELF-
  /// style lazy revalidation in the selectors stays exact.
  kLazy,
};

/// How a set's element membership is stored for recomputation.
enum class MembershipRepr : unsigned char {
  /// Sorted element-id list; a count is a per-element bit-test walk.
  kList,
  /// Packed uint64 rows; a count is a word-wise AND-NOT popcount.
  kBitset,
  /// Per set by density: bitset when |elements| * 64 >= |universe| (the
  /// word walk is then no longer than the list walk), list otherwise.
  kAuto,
};

struct EngineOptions {
  MarginalMode marginal_mode = MarginalMode::kLazy;
  MembershipRepr membership = MembershipRepr::kAuto;
  /// Lanes for batch marginal re-evaluation: 1 = serial (default),
  /// 0 = hardware concurrency, N = exactly N threads. Results are identical
  /// for every value (deterministic chunked reduction).
  unsigned num_threads = 1;
  /// Batches below this size are evaluated serially even with threads.
  std::size_t min_parallel_batch = 2048;
  /// Optional observability sink (src/obs): the engine publishes CELF cache
  /// hit/miss and batch-chunk metrics into it. nullptr = off; every
  /// instrumentation point then costs a single pointer branch. Solvers
  /// propagate their own trace pointer here, so frontends set it once.
  obs::TraceSession* trace = nullptr;
};

/// The seed implementation's configuration: eager inverted-index decrements
/// over element lists, serial. Equivalence tests and the engine-comparison
/// bench use this as the reference point.
inline EngineOptions SeedReferenceEngine() {
  EngineOptions options;
  options.marginal_mode = MarginalMode::kEager;
  options.membership = MembershipRepr::kList;
  options.num_threads = 1;
  return options;
}

}  // namespace scwsc

#endif  // SCWSC_CORE_ENGINE_OPTIONS_H_
