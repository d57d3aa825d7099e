// The FaultPlan primitive in isolation: point names, seeded determinism,
// probability extremes and scoped installation.

#include "src/common/fault.h"

#include <vector>

#include "gtest/gtest.h"

namespace scwsc {
namespace {

TEST(FaultPlanTest, PointNamesRoundTrip) {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    const FaultPoint point = static_cast<FaultPoint>(i);
    auto parsed = FaultPointFromString(FaultPointToString(point));
    ASSERT_TRUE(parsed.ok()) << FaultPointToString(point);
    EXPECT_EQ(*parsed, point);
  }
  EXPECT_TRUE(FaultPointFromString("not_a_point").status().IsInvalidArgument());
}

TEST(FaultPlanTest, DecisionsAreDeterministicPerSeedAndDraw) {
  std::vector<bool> first, second;
  FaultPlan a(123);
  a.Arm(FaultPoint::kSolverError, 0.5);
  for (int i = 0; i < 256; ++i) {
    first.push_back(a.ShouldFire(FaultPoint::kSolverError));
  }
  FaultPlan b(123);
  b.Arm(FaultPoint::kSolverError, 0.5);
  for (int i = 0; i < 256; ++i) {
    second.push_back(b.ShouldFire(FaultPoint::kSolverError));
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.draws(FaultPoint::kSolverError), 256u);
  EXPECT_EQ(a.fires(FaultPoint::kSolverError),
            b.fires(FaultPoint::kSolverError));

  // A different seed produces a different firing pattern (overwhelmingly).
  FaultPlan c(124);
  c.Arm(FaultPoint::kSolverError, 0.5);
  std::vector<bool> third;
  for (int i = 0; i < 256; ++i) {
    third.push_back(c.ShouldFire(FaultPoint::kSolverError));
  }
  EXPECT_NE(first, third);
}

TEST(FaultPlanTest, ProbabilityExtremesAndDisarmedPoints) {
  FaultPlan plan(9);
  plan.Arm(FaultPoint::kSolverError, 1.0);
  plan.Arm(FaultPoint::kSolverThrow, 0.0);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(plan.ShouldFire(FaultPoint::kSolverError));
    EXPECT_FALSE(plan.ShouldFire(FaultPoint::kSolverThrow));
    // Never-armed points fire nothing and count nothing.
    EXPECT_FALSE(plan.ShouldFire(FaultPoint::kSolverDelay));
  }
  EXPECT_EQ(plan.fires(FaultPoint::kSolverError), 64u);
  EXPECT_EQ(plan.draws(FaultPoint::kSolverDelay), 0u);

  const double p = 0.25;
  plan.Arm(FaultPoint::kResultCacheCorrupt, p);
  int fired = 0;
  const int kDraws = 4096;
  for (int i = 0; i < kDraws; ++i) {
    if (plan.ShouldFire(FaultPoint::kResultCacheCorrupt)) ++fired;
  }
  // Law-of-large-numbers sanity: the empirical rate tracks p.
  EXPECT_NEAR(static_cast<double>(fired) / kDraws, p, 0.05);
}

TEST(FaultPlanTest, InstallationGatesFaultFires) {
  // No plan installed: sites never fire.
  EXPECT_EQ(FaultPlan::Active(), nullptr);
  EXPECT_FALSE(FaultFires(FaultPoint::kSolverError));
  {
    ScopedFaultPlan chaos(/*seed=*/5);
    chaos.plan().Arm(FaultPoint::kSolverError, 1.0);
    EXPECT_EQ(FaultPlan::Active(), &chaos.plan());
    EXPECT_TRUE(FaultFires(FaultPoint::kSolverError));
    EXPECT_FALSE(FaultFires(FaultPoint::kSolverThrow));  // disarmed
  }
  // Scope exit uninstalls.
  EXPECT_EQ(FaultPlan::Active(), nullptr);
  EXPECT_FALSE(FaultFires(FaultPoint::kSolverError));
}

}  // namespace
}  // namespace scwsc
