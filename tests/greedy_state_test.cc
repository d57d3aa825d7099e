#include "src/core/greedy_state.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/solve_index.h"

namespace scwsc {
namespace {

// Pins the shared tie-break order used by CWSC's qualified argmax, the
// literal Fig. 2 engine and the gain-heap keys: higher gain (exact
// cross-multiplied), then higher marginal benefit, then lower cost, then
// lower id.
TEST(SelectionOrderTest, GainOrderPinsTieBreaks) {
  // Higher gain wins outright: 3/1 > 5/2.
  EXPECT_TRUE(BetterByGain(3, 1.0, 9, 5, 2.0, 1));
  EXPECT_FALSE(BetterByGain(5, 2.0, 1, 3, 1.0, 9));
  // Gains compared exactly by cross-multiplication, not rounded doubles:
  // 1/3 vs 2/6 is an exact tie, resolved by higher benefit.
  EXPECT_TRUE(BetterByGain(2, 6.0, 9, 1, 3.0, 1));
  EXPECT_FALSE(BetterByGain(1, 3.0, 1, 2, 6.0, 9));
  // Equal gain, equal benefit: lower id wins (equal count and gain force
  // equal cost).
  EXPECT_TRUE(BetterByGain(2, 6.0, 1, 2, 6.0, 9));
  EXPECT_FALSE(BetterByGain(2, 6.0, 9, 2, 6.0, 1));
  // Two zero-cost sets compare by count, then id.
  EXPECT_TRUE(BetterByGain(3, 0.0, 9, 2, 0.0, 1));
  EXPECT_TRUE(BetterByGain(2, 0.0, 1, 2, 0.0, 9));
}

TEST(SelectionOrderTest, BenefitOrderPinsTieBreaks) {
  // Higher benefit, then lower cost, then lower id.
  EXPECT_TRUE(BetterByBenefit(3, 9.0, 9, 2, 1.0, 1));
  EXPECT_TRUE(BetterByBenefit(2, 1.0, 9, 2, 2.0, 1));
  EXPECT_TRUE(BetterByBenefit(2, 1.0, 1, 2, 1.0, 9));
  EXPECT_FALSE(BetterByBenefit(2, 1.0, 9, 2, 1.0, 1));
}

TEST(SelectionKeyTest, HeapOrderMatchesSharedComparators) {
  // a < b exactly when b is the better candidate under the shared order.
  SelectionKey a = MakeBenefitKey(2, 1.0, 5);
  SelectionKey c = MakeBenefitKey(3, 1.0, 5);
  EXPECT_TRUE(a < c);  // higher count wins

  SelectionKey d = MakeBenefitKey(2, 0.5, 5);
  EXPECT_TRUE(a < d);  // lower cost wins

  SelectionKey e = MakeBenefitKey(2, 1.0, 4);
  EXPECT_TRUE(a < e);  // lower id wins

  // Gain keys: 9/3 beats 2/1; exact tie 1/3 == 2/6 resolved by count.
  EXPECT_TRUE(MakeGainKey(2, 1.0, 1) < MakeGainKey(9, 3.0, 2));
  EXPECT_TRUE(MakeGainKey(1, 3.0, 1) < MakeGainKey(2, 6.0, 2));
}

TEST(MakeGainKeyTest, ZeroCostIsInfiniteGain) {
  SelectionKey free = MakeGainKey(1, 0.0, 0);
  SelectionKey paid = MakeGainKey(100, 0.001, 1);
  EXPECT_TRUE(paid < free);
  SelectionKey empty_free = MakeGainKey(0, 0.0, 2);
  EXPECT_TRUE(empty_free < paid);
}

TEST(LazySelectorTest, PopsCurrentMaximumUnderDecay) {
  // Simulated marginal counts that decay between pushes and pops.
  std::vector<std::size_t> current = {5, 4, 3};
  LazySelector selector;
  for (SetId id = 0; id < 3; ++id) {
    selector.Push(MakeBenefitKey(current[id], 1.0, id));
  }
  // Decay set 0 below set 1 before the first pop.
  current[0] = 2;
  auto refresh = [&](SetId id) -> std::optional<SelectionKey> {
    if (current[id] == 0) return std::nullopt;
    return MakeBenefitKey(current[id], 1.0, id);
  };
  auto first = selector.Pop(refresh);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);  // 4 beats decayed 2 and 3

  auto second = selector.Pop(refresh);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2u);

  auto third = selector.Pop(refresh);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->id, 0u);

  EXPECT_FALSE(selector.Pop(refresh).has_value());
}

TEST(LazySelectorTest, DropsCandidatesRefreshedToNull) {
  LazySelector selector;
  selector.Push(MakeBenefitKey(10, 1.0, 0));
  selector.Push(MakeBenefitKey(5, 1.0, 1));
  auto refresh = [&](SetId id) -> std::optional<SelectionKey> {
    if (id == 0) return std::nullopt;  // exhausted
    return MakeBenefitKey(5, 1.0, id);
  };
  auto popped = selector.Pop(refresh);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 1u);
}

TEST(LazySelectorTest, EmptySelectorPopsNothing) {
  LazySelector selector;
  EXPECT_TRUE(selector.empty());
  auto refresh = [](SetId) -> std::optional<SelectionKey> {
    return std::nullopt;
  };
  EXPECT_FALSE(selector.Pop(refresh).has_value());
}

TEST(SolveIndexTest, GainHeapQueuesNonEmptySetsAtTheirSizeAndCountsEverySet) {
  SetSystem system(6);
  ASSERT_TRUE(system.AddSet({0, 1, 2}, 3.0).ok());  // set 0
  ASSERT_TRUE(system.AddSet({}, 1.0).ok());         // set 1: never queued
  ASSERT_TRUE(system.AddSet({4, 5}, 1.0).ok());     // set 2
  const SolveIndex index(system);
  EXPECT_EQ(index.gain_heap().size(), 2u);
  std::size_t considered = 7;
  LazySelector selector(index.gain_heap(), considered);
  EXPECT_EQ(considered, 7u + 3u);

  std::vector<SelectionKey> popped;
  while (!selector.empty()) {
    auto key = selector.Pop([&](SetId id) -> std::optional<SelectionKey> {
      return MakeGainKey(system.set(id).elements.size(), system.set(id).cost,
                         id);
    });
    ASSERT_TRUE(key.has_value());
    popped.push_back(*key);
  }
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0], MakeGainKey(2, 1.0, 2));  // gain 2 beats 3/3
  EXPECT_EQ(popped[1], MakeGainKey(3, 3.0, 0));
}

/// The lazy selector as it was before seed heaps: one std::priority_queue
/// holding every key. The frontier walk must pop exactly as it does.
class ReferenceSelector {
 public:
  void Push(SelectionKey key) { heap_.push(key); }

  template <typename RefreshFn>
  std::optional<SelectionKey> Pop(RefreshFn&& refresh) {
    while (!heap_.empty()) {
      const SelectionKey top = heap_.top();
      heap_.pop();
      std::optional<SelectionKey> current = refresh(top.id);
      if (!current.has_value()) continue;
      if (*current == top) return top;
      heap_.push(*current);
    }
    return std::nullopt;
  }

 private:
  std::priority_queue<SelectionKey> heap_;
};

/// A small system with tied sizes and costs, zero-cost and empty sets.
SetSystem TieHeavySystem(Rng& rng) {
  const std::size_t n = 1 + rng.NextBounded(24);
  SetSystem system(n);
  const std::size_t m = rng.NextBounded(40);
  constexpr double kCosts[] = {0.0, 0.5, 1.0, 1.0, 2.0, 3.0};
  for (std::size_t s = 0; s < m; ++s) {
    std::vector<ElementId> elements;
    const std::size_t size = rng.NextBounded(std::min<std::size_t>(n, 6) + 1);
    for (std::size_t i = 0; i < size; ++i) {
      elements.push_back(static_cast<ElementId>(rng.NextBounded(n)));
    }
    EXPECT_TRUE(system.AddSet(std::move(elements), kCosts[rng.NextBounded(6)])
                    .ok());
  }
  return system;
}

// Seeded over 200 systems and both orders: random decays, drops and
// CWSC-style parks (popped keys held back, then pushed again), driven in
// lockstep through the frontier walk and through a reference queue that
// holds every key. The pop sequences must be identical.
TEST(LazySelectorTest, PopOrderMatchesAHeapHoldingEveryKey) {
  Rng rng(20151006);
  std::size_t total_pops = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const SetSystem system = TieHeavySystem(rng);
    const auto kind = trial % 2 == 0 ? SelectionKey::Kind::kGain
                                     : SelectionKey::Kind::kBenefit;
    const SeedHeap seeds(system, kind);
    std::size_t considered = 0;
    LazySelector selector(seeds, considered);
    ASSERT_EQ(considered, system.num_sets());
    ReferenceSelector reference;
    std::vector<std::size_t> current(system.num_sets());
    std::vector<bool> dropped(system.num_sets(), false);
    for (SetId id = 0; id < system.num_sets(); ++id) {
      current[id] = system.set(id).elements.size();
      if (current[id] > 0) {
        reference.Push(
            SelectionKey{kind, current[id], system.set(id).cost, id});
      }
    }
    auto refresh = [&](SetId id) -> std::optional<SelectionKey> {
      if (dropped[id] || current[id] == 0) return std::nullopt;
      return SelectionKey{kind, current[id], system.set(id).cost, id};
    };

    std::vector<SelectionKey> parked;
    while (true) {
      for (std::size_t d = rng.NextBounded(3); d > 0 && system.num_sets() > 0;
           --d) {
        const auto id = static_cast<SetId>(rng.NextBounded(system.num_sets()));
        if (rng.NextBool(0.15)) {
          dropped[id] = true;
        } else if (current[id] > 0) {
          current[id] -= rng.NextBounded(current[id] + 1);
        }
      }
      const std::optional<SelectionKey> got = selector.Pop(refresh);
      const std::optional<SelectionKey> want = reference.Pop(refresh);
      ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
      if (got.has_value()) {
        ASSERT_EQ(*got, *want) << "trial " << trial;
        ++total_pops;
        if (rng.NextBool(0.4)) {
          parked.push_back(*got);  // held back, as CWSC parks a key
          continue;
        }
        dropped[got->id] = true;  // taken, as a pick leaves the pool
      }
      if (parked.empty() && !got.has_value()) break;
      for (const SelectionKey& key : parked) {
        selector.Push(key);
        reference.Push(key);
      }
      parked.clear();
    }
    EXPECT_TRUE(selector.empty()) << "trial " << trial;
  }
  EXPECT_GT(total_pops, 1000u);  // the walk was really exercised
}

}  // namespace
}  // namespace scwsc
