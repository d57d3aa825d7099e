#include "src/core/solve_index.h"

#include <algorithm>

namespace scwsc {
namespace {

/// The density rule: a packed row costs ~n/64 word ops per recount, the
/// sorted list costs ~|elements| bit tests, so the row wins once the set
/// holds at least one element per word of the universe.
bool DenseEnoughForRow(std::size_t set_size, std::size_t num_elements) {
  return set_size * 64 >= num_elements;
}

}  // namespace

SolveIndex::SolveIndex(const SetSystem& system)
    : system_(system),
      gain_heap_(system, SelectionKey::Kind::kGain),
      words_per_row_((system.num_elements() + 63) / 64) {
  const std::size_t n = system.num_elements();
  sizes_.reserve(system.num_sets());
  for (SetId id = 0; id < system.num_sets(); ++id) {
    const std::size_t size = system.set(id).elements.size();
    sizes_.push_back(static_cast<std::uint32_t>(size));
    if (DenseEnoughForRow(size, n)) dense_ids_.push_back(id);
  }
  rows_.assign(dense_ids_.size() * words_per_row_, 0);
  for (std::size_t r = 0; r < dense_ids_.size(); ++r) {
    std::uint64_t* row = rows_.data() + r * words_per_row_;
    for (ElementId e : system.set(dense_ids_[r]).elements) {
      row[e >> 6] |= std::uint64_t{1} << (e & 63);
    }
  }
}

const std::uint64_t* SolveIndex::row(SetId id) const {
  if (!DenseEnoughForRow(sizes_[id], system_.num_elements())) return nullptr;
  const auto r = static_cast<std::size_t>(
      std::lower_bound(dense_ids_.begin(), dense_ids_.end(), id) -
      dense_ids_.begin());
  return rows_.data() + r * words_per_row_;
}

}  // namespace scwsc
