#include "src/common/run_context.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/solution.h"

namespace scwsc {
namespace {

TEST(RunContextTest, DefaultIsUnlimited) {
  RunContext ctx;
  EXPECT_FALSE(ctx.limited());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ctx.Check(), TripKind::kNone);
    EXPECT_EQ(ctx.ChargeRecounts(1'000'000), TripKind::kNone);
    EXPECT_EQ(ctx.ChargeNodes(1'000'000), TripKind::kNone);
  }
  EXPECT_EQ(ctx.tripped(), TripKind::kNone);
}

TEST(RunContextTest, SharedUnlimitedNeverTrips) {
  const RunContext& ctx = RunContext::Unlimited();
  EXPECT_FALSE(ctx.limited());
  EXPECT_EQ(ctx.Check(), TripKind::kNone);
}

TEST(RunContextTest, ZeroDeadlineTripsImmediately) {
  RunContext ctx;
  ctx.SetDeadline(std::chrono::milliseconds(0));
  EXPECT_TRUE(ctx.limited());
  EXPECT_EQ(ctx.Check(), TripKind::kDeadline);
  EXPECT_EQ(ctx.tripped(), TripKind::kDeadline);
}

TEST(RunContextTest, FutureDeadlineDoesNotTripEarly) {
  RunContext ctx;
  ctx.SetDeadline(std::chrono::hours(24));
  EXPECT_EQ(ctx.Check(), TripKind::kNone);
  EXPECT_EQ(ctx.tripped(), TripKind::kNone);
}

TEST(RunContextTest, PassedDeadlineTrips) {
  RunContext ctx;
  ctx.SetDeadlineAt(RunContext::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_EQ(ctx.Check(), TripKind::kDeadline);
}

TEST(RunContextTest, CancelTripsAndIsSticky) {
  RunContext ctx;
  EXPECT_EQ(ctx.Check(), TripKind::kNone);
  ctx.RequestCancel();
  EXPECT_EQ(ctx.Check(), TripKind::kCancel);
  // Sticky: later sources cannot overwrite the first trip.
  ctx.SetDeadline(std::chrono::milliseconds(0));
  EXPECT_EQ(ctx.Check(), TripKind::kCancel);
  EXPECT_EQ(ctx.ChargeNodes(1), TripKind::kCancel);
  EXPECT_EQ(ctx.tripped(), TripKind::kCancel);
}

TEST(RunContextTest, RecountBudgetAllowsExactlyTheBudget) {
  RunContext ctx;
  ctx.SetRecountBudget(5);
  EXPECT_EQ(ctx.ChargeRecounts(3), TripKind::kNone);
  EXPECT_EQ(ctx.ChargeRecounts(2), TripKind::kNone);  // exactly exhausted
  EXPECT_EQ(ctx.ChargeRecounts(1), TripKind::kBudget);
  EXPECT_EQ(ctx.tripped(), TripKind::kBudget);
}

TEST(RunContextTest, OversizedChargeTripsAtOnce) {
  RunContext ctx;
  ctx.SetRecountBudget(5);
  EXPECT_EQ(ctx.ChargeRecounts(6), TripKind::kBudget);
}

TEST(RunContextTest, NodeBudgetOfOneAllowsOneExpansion) {
  RunContext ctx;
  ctx.SetNodeBudget(1);
  EXPECT_EQ(ctx.ChargeNodes(1), TripKind::kNone);
  EXPECT_EQ(ctx.ChargeNodes(1), TripKind::kBudget);
}

TEST(RunContextTest, BudgetsAreIndependent) {
  RunContext ctx;
  ctx.SetRecountBudget(2);
  // Node charges draw nothing from the recount budget.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ctx.ChargeNodes(100), TripKind::kNone);
  }
  EXPECT_EQ(ctx.ChargeRecounts(2), TripKind::kNone);
  EXPECT_EQ(ctx.ChargeRecounts(1), TripKind::kBudget);
}

TEST(RunContextTest, FailAfterZeroTripsFirstCheck) {
  RunContext ctx;
  ctx.FailAfter(0);
  EXPECT_EQ(ctx.Check(), TripKind::kCancel);
}

TEST(RunContextTest, FailAfterNTripsTheNPlusFirstCheck) {
  RunContext ctx;
  ctx.FailAfter(3);
  EXPECT_EQ(ctx.Check(), TripKind::kNone);
  EXPECT_EQ(ctx.Check(), TripKind::kNone);
  EXPECT_EQ(ctx.Check(), TripKind::kNone);
  EXPECT_EQ(ctx.Check(), TripKind::kCancel);
  EXPECT_EQ(ctx.Check(), TripKind::kCancel);  // sticky
}

TEST(RunContextTest, ConcurrentTripsConvergeOnOneKind) {
  // Many threads racing cancel against a zero node budget must all observe
  // the same sticky winner.
  RunContext ctx;
  ctx.SetNodeBudget(0);
  std::atomic<int> deadline_count{0};
  std::vector<std::thread> threads;
  std::vector<TripKind> seen(8, TripKind::kNone);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) ctx.RequestCancel();
      TripKind k = ctx.ChargeNodes(1);
      for (int i = 0; i < 100; ++i) {
        const TripKind again = ctx.Check();
        if (again != k) deadline_count.fetch_add(1);
      }
      seen[t] = k;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(deadline_count.load(), 0);
  for (std::size_t t = 1; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  EXPECT_NE(ctx.tripped(), TripKind::kNone);
}

TEST(RunContextTest, TripStatusMapsKindsToCodes) {
  EXPECT_TRUE(TripStatus(TripKind::kDeadline, "op").IsDeadlineExceeded());
  EXPECT_TRUE(TripStatus(TripKind::kCancel, "op").IsCancelled());
  EXPECT_TRUE(TripStatus(TripKind::kBudget, "op").IsResourceExhausted());
  for (TripKind kind :
       {TripKind::kDeadline, TripKind::kCancel, TripKind::kBudget}) {
    EXPECT_TRUE(TripStatus(kind, "op").IsInterruption());
  }
}

TEST(RunContextTest, TripKindNames) {
  EXPECT_STREQ(TripKindToString(TripKind::kNone), "none");
  EXPECT_STREQ(TripKindToString(TripKind::kDeadline), "deadline");
  EXPECT_STREQ(TripKindToString(TripKind::kCancel), "cancel");
  EXPECT_STREQ(TripKindToString(TripKind::kBudget), "budget");
}

TEST(RunContextTest, StatusPayloadRoundTrips) {
  Solution partial;
  partial.sets = {3, 1, 4};
  partial.total_cost = 2.5;
  partial.covered = 7;
  const Status status =
      TripStatus(TripKind::kDeadline, "test").WithPayload(partial);
  ASSERT_FALSE(status.ok());
  const Solution* back = status.payload<Solution>();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->sets, partial.sets);
  EXPECT_EQ(back->total_cost, 2.5);
  EXPECT_EQ(back->covered, 7u);
  // Wrong type or no payload yields nullptr, never UB.
  EXPECT_EQ(status.payload<int>(), nullptr);
  EXPECT_EQ(Status::Cancelled("bare").payload<Solution>(), nullptr);
}

TEST(RunContextTest, InterruptedStatusStampsProvenance) {
  Solution partial;
  partial.sets = {2, 5};
  partial.total_cost = 9.0;
  partial.covered = 11;
  const Status status =
      InterruptedStatus(TripKind::kBudget, "solver", partial, 3.5);
  EXPECT_TRUE(status.IsResourceExhausted());
  const Solution* back = status.payload<Solution>();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->provenance.trip, TripKind::kBudget);
  EXPECT_EQ(back->provenance.sets_chosen, 2u);
  EXPECT_EQ(back->provenance.coverage_reached, 11u);
  EXPECT_EQ(back->provenance.budget_level, 3.5);
  EXPECT_TRUE(back->provenance.interrupted());
}

}  // namespace
}  // namespace scwsc
