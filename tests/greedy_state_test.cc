#include "src/core/greedy_state.h"

#include "gtest/gtest.h"

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

TEST(SeedBySizeTest, PushesNonEmptySetsAtTheirSizeAndCountsEverySet) {
  SetSystem system(6);
  ASSERT_TRUE(system.AddSet({0, 1, 2}, 3.0).ok());  // set 0
  ASSERT_TRUE(system.AddSet({}, 1.0).ok());         // set 1: never queued
  ASSERT_TRUE(system.AddSet({4, 5}, 1.0).ok());     // set 2
  LazySelector selector;
  std::size_t considered = 7;
  SeedBySize(system, selector, considered, MakeGainKey);
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

}  // namespace
}  // namespace scwsc
