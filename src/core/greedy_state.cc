#include "src/core/greedy_state.h"

#include <algorithm>

namespace scwsc {

SelectionKey MakeBenefitKey(std::size_t count, double cost, SetId id) {
  return SelectionKey{SelectionKey::Kind::kBenefit, count, cost, id};
}

SelectionKey MakeGainKey(std::size_t count, double cost, SetId id) {
  return SelectionKey{SelectionKey::Kind::kGain, count, cost, id};
}

SeedHeap::SeedHeap(const SetSystem& system, SelectionKey::Kind kind)
    : kind_(kind), num_sets_(system.num_sets()) {
  entries_.reserve(num_sets_);
  for (SetId id = 0; id < num_sets_; ++id) {
    const WeightedSet& set = system.set(id);
    if (!set.elements.empty()) {
      entries_.push_back(Entry{static_cast<std::uint32_t>(set.elements.size()),
                               id, set.cost});
    }
  }
  std::make_heap(entries_.begin(), entries_.end(),
                 [kind](const Entry& a, const Entry& b) {
                   return SelectionKey{kind, a.size, a.cost, a.id} <
                          SelectionKey{kind, b.size, b.cost, b.id};
                 });
}

LazySelector::LazySelector(const SeedHeap& seeds, std::size_t& sets_considered)
    : seeds_(&seeds), frontier_(FrontierLess{&seeds}) {
  if (seeds.size() > 0) frontier_.push(0);
  sets_considered += seeds.num_sets();
}

SelectionKey LazySelector::TakeBest() {
  if (!frontier_.empty()) {
    const std::size_t pos = frontier_.top();
    const SelectionKey seed = seeds_->Key(pos);
    if (requeued_.empty() || requeued_.top() < seed) {
      frontier_.pop();
      for (std::size_t child = 2 * pos + 1;
           child <= 2 * pos + 2 && child < seeds_->size(); ++child) {
        frontier_.push(child);
      }
      return seed;
    }
  }
  SelectionKey top = requeued_.top();
  requeued_.pop();
  return top;
}

}  // namespace scwsc
