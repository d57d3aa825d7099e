// SolveIndex: what a greedy solve derives from the set system alone, built
// once and shared by every solve over that system.
//
// Fig. 2 (lines 01-04) starts every CWSC run from the same state, each
// set's marginal benefit equal to its size, and every BenefitEngine packs
// the same dense sets into the same rows. The index holds both, plus the
// set sizes the engine starts its counts from:
//
//  - the gain-ordered SeedHeap (greedy_state.h) that CWSC, greedy WSC,
//    budgeted max coverage, LP rounding's repair and the certificate's
//    greedy cover walk in place through LazySelector;
//  - a packed uint64 row for every set dense enough to want one (at least
//    one element per 64-bit word of the universe, |s| * 64 >= n), so a
//    recount is a word-wise AND-NOT popcount against the covered words;
//    sparser sets keep the SetSystem's sorted element list.
//
// The index is immutable once built and only read by solves, so any number
// of concurrent engines may borrow one (api::InstanceSnapshot keeps one per
// snapshot). It refers to the SetSystem it was built from, which must
// outlive it.

#ifndef SCWSC_CORE_SOLVE_INDEX_H_
#define SCWSC_CORE_SOLVE_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/core/greedy_state.h"
#include "src/core/set_system.h"

namespace scwsc {

class SolveIndex {
 public:
  explicit SolveIndex(const SetSystem& system);

  SolveIndex(const SolveIndex&) = delete;
  SolveIndex& operator=(const SolveIndex&) = delete;

  const SetSystem& system() const { return system_; }

  /// |Ben(s)| for every set, by id.
  const std::vector<std::uint32_t>& sizes() const { return sizes_; }

  /// Every non-empty set at its size, in the gain order (MakeGainKey).
  const SeedHeap& gain_heap() const { return gain_heap_; }

  /// The packed membership row of `id` (words_per_row() words), or nullptr
  /// when the set is too sparse to have one.
  const std::uint64_t* row(SetId id) const;
  std::size_t words_per_row() const { return words_per_row_; }

 private:
  const SetSystem& system_;
  std::vector<std::uint32_t> sizes_;
  SeedHeap gain_heap_;

  /// Rows of the dense sets, in ascending id order (dense_ids_).
  std::size_t words_per_row_;
  std::vector<SetId> dense_ids_;
  std::vector<std::uint64_t> rows_;
};

}  // namespace scwsc

#endif  // SCWSC_CORE_SOLVE_INDEX_H_
