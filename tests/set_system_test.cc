#include "src/core/set_system.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "src/core/solution.h"

namespace scwsc {
namespace {

TEST(SetSystemTest, AddSetSortsAndDeduplicates) {
  SetSystem system(10);
  auto id = system.AddSet({5, 1, 3, 1, 5}, 2.0, "s");
  ASSERT_TRUE(id.ok());
  const WeightedSet& s = system.set(*id);
  EXPECT_EQ(s.elements, (std::vector<ElementId>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(s.cost, 2.0);
  EXPECT_EQ(s.label, "s");

  // Already sorted but not strictly increasing: still deduplicated.
  auto sorted = system.AddSet({1, 3, 3, 5}, 1.0);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(system.set(*sorted).elements, (std::vector<ElementId>{1, 3, 5}));
}

TEST(SetSystemTest, RejectsOutOfUniverseElements) {
  SetSystem system(4);
  EXPECT_TRUE(system.AddSet({4}, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(system.AddSet({0, 99}, 1.0).status().IsInvalidArgument());
  // Strictly increasing input skips the sort but not the universe check.
  EXPECT_TRUE(system.AddSet({0, 1, 4}, 1.0).status().IsInvalidArgument());
  EXPECT_EQ(system.num_sets(), 0u);
}

TEST(SetSystemTest, RejectsNegativeOrNonFiniteCosts) {
  SetSystem system(4);
  EXPECT_TRUE(system.AddSet({0}, -1.0).status().IsInvalidArgument());
  EXPECT_TRUE(system.AddSet({0}, std::nan("")).status().IsInvalidArgument());
  EXPECT_TRUE(
      system.AddSet({0}, std::numeric_limits<double>::infinity())
          .status()
          .IsInvalidArgument());
}

TEST(SetSystemTest, EmptySetIsAllowed) {
  SetSystem system(4);
  auto id = system.AddSet({}, 0.0);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(system.set(*id).elements.empty());
}

TEST(SetSystemTest, TotalCostSums) {
  SetSystem system(4);
  ASSERT_TRUE(system.AddSet({0}, 1.5).ok());
  ASSERT_TRUE(system.AddSet({1}, 2.5).ok());
  EXPECT_DOUBLE_EQ(system.TotalCost(), 4.0);
}

TEST(SetSystemTest, KCheapestCostPicksSmallest) {
  SetSystem system(4);
  ASSERT_TRUE(system.AddSet({0}, 10).ok());
  ASSERT_TRUE(system.AddSet({1}, 2).ok());
  ASSERT_TRUE(system.AddSet({2}, 3).ok());
  EXPECT_DOUBLE_EQ(system.KCheapestCost(2), 5.0);
  EXPECT_DOUBLE_EQ(system.KCheapestCost(99), 15.0);  // clamped
  EXPECT_DOUBLE_EQ(system.KCheapestCost(0), 0.0);
}

TEST(SetSystemTest, HasUniverseSetDetection) {
  SetSystem system(3);
  ASSERT_TRUE(system.AddSet({0, 1}, 1).ok());
  EXPECT_FALSE(system.HasUniverseSet());
  ASSERT_TRUE(system.AddSet({0, 1, 2}, 1).ok());
  EXPECT_TRUE(system.HasUniverseSet());
}

TEST(SetSystemTest, InvertedIndexMapsElementsToSets) {
  SetSystem system(3);
  ASSERT_TRUE(system.AddSet({0, 1}, 1).ok());
  ASSERT_TRUE(system.AddSet({1, 2}, 1).ok());
  const auto inv = system.BuildInvertedIndex();
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv[0], (std::vector<SetId>{0}));
  EXPECT_EQ(inv[1], (std::vector<SetId>{0, 1}));
  EXPECT_EQ(inv[2], (std::vector<SetId>{1}));
}

TEST(SetSystemTest, InvertedIndexSeesSetsAddedLater) {
  SetSystem system(2);
  ASSERT_TRUE(system.AddSet({0}, 1).ok());
  const auto before = system.BuildInvertedIndex();
  EXPECT_EQ(before[1].size(), 0u);
  ASSERT_TRUE(system.AddSet({1}, 1).ok());
  EXPECT_EQ(system.BuildInvertedIndex()[1], (std::vector<SetId>{1}));
  EXPECT_EQ(before[1].size(), 0u);  // the caller's copy is its own
}

TEST(CoverageTargetTest, ExactFractionsHitExactCounts) {
  EXPECT_EQ(SetSystem::CoverageTarget(9.0 / 16.0, 16), 9u);
  EXPECT_EQ(SetSystem::CoverageTarget(0.5, 10), 5u);
  EXPECT_EQ(SetSystem::CoverageTarget(1.0, 7), 7u);
  EXPECT_EQ(SetSystem::CoverageTarget(0.0, 7), 0u);
}

TEST(CoverageTargetTest, RoundsUpStrictFractions) {
  EXPECT_EQ(SetSystem::CoverageTarget(0.3, 10), 3u);
  EXPECT_EQ(SetSystem::CoverageTarget(0.31, 10), 4u);
  EXPECT_EQ(SetSystem::CoverageTarget(0.301, 1000), 301u);
}

TEST(CoverageTargetTest, RobustToFloatDustAtScale) {
  // 0.3 * 700000 = 209999.99999999997 in doubles; must not round to 210001.
  EXPECT_EQ(SetSystem::CoverageTarget(0.3, 700'000), 210'000u);
  EXPECT_EQ(SetSystem::CoverageTarget(1.0 / 3.0, 3'000'000), 1'000'000u);
}

TEST(BetterGainTest, ComparesByCrossMultiplication) {
  EXPECT_TRUE(BetterGain(8, 24, 16, 96));   // 1/3 > 1/6
  EXPECT_FALSE(BetterGain(16, 96, 8, 24));
  EXPECT_FALSE(BetterGain(1, 2, 2, 4));     // equal gains
  EXPECT_FALSE(BetterGain(2, 4, 1, 2));
}

TEST(BetterGainTest, ZeroCostBeatsFiniteCost) {
  EXPECT_TRUE(BetterGain(1, 0.0, 100, 1.0));
  EXPECT_FALSE(BetterGain(100, 1.0, 1, 0.0));
  EXPECT_TRUE(BetterGain(3, 0.0, 2, 0.0));  // both free: by count
  EXPECT_FALSE(BetterGain(2, 0.0, 3, 0.0));
}

TEST(BetterGainTest, ZeroCountNeverWins) {
  EXPECT_FALSE(BetterGain(0, 0.0, 1, 5.0));
  EXPECT_FALSE(BetterGain(0, 1.0, 1, 100.0));
}

}  // namespace
}  // namespace scwsc
