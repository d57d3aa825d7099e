// The serve layer's recovery policies in isolation: backoff bounds and
// determinism, retryability classification, per-label retry budgets against
// an explicit clock, circuit-breaker state transitions, the degradation
// ladder, and the FaultPlan primitive they all react to.

#include "src/serve/resilience.h"

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/fault.h"
#include "src/obs/metrics.h"

namespace scwsc {
namespace {

using serve::CircuitBreaker;
using serve::CircuitBreakerOptions;
using serve::DegradationLadder;
using serve::NextBackoffMs;
using serve::RetryBudget;
using serve::RetryBudgetOptions;
using serve::RetryPolicy;

using Clock = std::chrono::steady_clock;

Clock::time_point At(double seconds) {
  return Clock::time_point{} +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(seconds));
}

// --- backoff ---------------------------------------------------------------

TEST(BackoffTest, StaysWithinDecorrelatedJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 2.0;
  policy.max_backoff_ms = 100.0;

  double prev = 0.0;
  for (std::uint64_t draw = 0; draw < 200; ++draw) {
    const double next = NextBackoffMs(policy, prev, draw);
    EXPECT_GE(next, policy.initial_backoff_ms);
    EXPECT_LE(next, policy.max_backoff_ms);
    // Decorrelated jitter: uniform(initial, 3 * prev), so the wait never
    // exceeds 3x the previous one (modulo the initial floor).
    if (prev > policy.initial_backoff_ms) {
      EXPECT_LE(next, 3.0 * prev);
    }
    prev = next;
  }
}

TEST(BackoffTest, SameSeedSameDrawIsDeterministic) {
  RetryPolicy policy;
  for (std::uint64_t draw = 0; draw < 32; ++draw) {
    EXPECT_EQ(NextBackoffMs(policy, 10.0, draw),
              NextBackoffMs(policy, 10.0, draw));
  }
  // ...and different draws actually vary (not a constant function).
  std::set<double> waits;
  for (std::uint64_t draw = 0; draw < 32; ++draw) {
    waits.insert(NextBackoffMs(policy, 10.0, draw));
  }
  EXPECT_GT(waits.size(), 1u);
}

TEST(BackoffTest, RetryableFailuresAreInternalAndUnavailableOnly) {
  EXPECT_TRUE(serve::IsRetryableFailure(Status::Internal("transient")));
  EXPECT_TRUE(serve::IsRetryableFailure(Status::Unavailable("breaker open")));
  // Interruptions carry partial payloads; config errors repeat identically.
  EXPECT_FALSE(serve::IsRetryableFailure(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(serve::IsRetryableFailure(Status::Cancelled("ctrl-c")));
  EXPECT_FALSE(serve::IsRetryableFailure(Status::InvalidArgument("bad k")));
  EXPECT_FALSE(serve::IsRetryableFailure(Status::NotFound("no file")));
  EXPECT_FALSE(serve::IsRetryableFailure(Status::OK()));
}

// --- retry budget ----------------------------------------------------------

TEST(RetryBudgetTest, BucketDrainsThenRefillsAtConfiguredRate) {
  RetryBudgetOptions options;
  options.tokens_per_second = 2.0;
  options.burst = 3.0;
  RetryBudget budget(options);

  // A fresh label starts with a full burst.
  EXPECT_DOUBLE_EQ(budget.available("tenant-a", At(0.0)), 3.0);
  EXPECT_TRUE(budget.TryAcquire("tenant-a", At(0.0)));
  EXPECT_TRUE(budget.TryAcquire("tenant-a", At(0.0)));
  EXPECT_TRUE(budget.TryAcquire("tenant-a", At(0.0)));
  EXPECT_FALSE(budget.TryAcquire("tenant-a", At(0.0)));

  // Half a second refills one token at 2 tokens/s.
  EXPECT_TRUE(budget.TryAcquire("tenant-a", At(0.5)));
  EXPECT_FALSE(budget.TryAcquire("tenant-a", At(0.5)));

  // Refill is capped at burst, not unbounded.
  EXPECT_DOUBLE_EQ(budget.available("tenant-a", At(100.0)), 3.0);
}

TEST(RetryBudgetTest, LabelsHaveIndependentBuckets) {
  RetryBudgetOptions options;
  options.tokens_per_second = 1.0;
  options.burst = 1.0;
  RetryBudget budget(options);

  EXPECT_TRUE(budget.TryAcquire("a", At(0.0)));
  EXPECT_FALSE(budget.TryAcquire("a", At(0.0)));
  // Draining "a" leaves "b" untouched.
  EXPECT_TRUE(budget.TryAcquire("b", At(0.0)));
}

// --- circuit breaker -------------------------------------------------------

CircuitBreakerOptions SmallBreaker() {
  CircuitBreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 2;
  options.open_seconds = 1.0;
  options.half_open_successes = 2;
  return options;
}

TEST(CircuitBreakerTest, DisabledBreakerAdmitsEverything) {
  CircuitBreaker breaker(CircuitBreakerOptions{});
  for (int i = 0; i < 10; ++i) breaker.RecordFailure(At(0.0));
  EXPECT_TRUE(breaker.Admit(At(0.0)).ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, WalksClosedOpenHalfOpenClosed) {
  obs::MetricRegistry metrics;
  CircuitBreaker breaker(SmallBreaker(), &metrics);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // Two consecutive failures open it.
  breaker.RecordFailure(At(0.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(At(0.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // While open, admission is a typed Unavailable naming the wait.
  Status rejected = breaker.Admit(At(0.5));
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_NE(rejected.ToString().find("retry after"), std::string::npos);

  // After open_seconds, the next Admit becomes a half-open probe.
  EXPECT_TRUE(breaker.Admit(At(1.5)).ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // half_open_successes = 2 consecutive successes close it again.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  EXPECT_EQ(metrics.CounterValue("serve.breaker.opened"), 1u);
  EXPECT_EQ(metrics.CounterValue("serve.breaker.half_opened"), 1u);
  EXPECT_EQ(metrics.CounterValue("serve.breaker.closed"), 1u);
  EXPECT_EQ(metrics.CounterValue("serve.breaker.rejected"), 1u);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  CircuitBreaker breaker(SmallBreaker());
  breaker.RecordFailure(At(0.0));
  breaker.RecordFailure(At(0.0));
  ASSERT_TRUE(breaker.Admit(At(2.0)).ok());  // half-open probe
  breaker.RecordFailure(At(2.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // The fresh open period counts from the half-open failure.
  EXPECT_TRUE(breaker.Admit(At(2.5)).IsUnavailable());
  EXPECT_TRUE(breaker.Admit(At(3.5)).ok());
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveFailureCount) {
  CircuitBreaker breaker(SmallBreaker());
  breaker.RecordFailure(At(0.0));
  breaker.RecordSuccess();
  breaker.RecordFailure(At(0.0));
  // Never two *consecutive* failures, so still closed.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, BankSharesOneBreakerPerSolver) {
  serve::BreakerBank bank(SmallBreaker());
  CircuitBreaker& cwsc = bank.ForSolver("cwsc");
  EXPECT_EQ(&cwsc, &bank.ForSolver("cwsc"));
  EXPECT_NE(&cwsc, &bank.ForSolver("cmc"));
  cwsc.RecordFailure(At(0.0));
  cwsc.RecordFailure(At(0.0));
  EXPECT_EQ(bank.ForSolver("cwsc").state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(bank.ForSolver("cmc").state(), CircuitBreaker::State::kClosed);
}

// --- degradation ladder ----------------------------------------------------

TEST(DegradationLadderTest, EmptyByDefaultAndChainsWhenConfigured) {
  DegradationLadder ladder;
  EXPECT_EQ(ladder.FallbackFor("exact"), nullptr);

  ladder.AddRung("exact", "cwsc").AddRung("cwsc", "greedy-wsc");
  ASSERT_NE(ladder.FallbackFor("exact"), nullptr);
  EXPECT_EQ(*ladder.FallbackFor("exact"), "cwsc");
  ASSERT_NE(ladder.FallbackFor("cwsc"), nullptr);
  EXPECT_EQ(*ladder.FallbackFor("cwsc"), "greedy-wsc");
  EXPECT_EQ(ladder.FallbackFor("greedy-wsc"), nullptr);
}

TEST(DegradationLadderTest, DefaultLadderBottomsOutAtBaselines) {
  const DegradationLadder ladder = DegradationLadder::Default();
  // Every configured chain terminates (no cycles) within a short walk.
  for (const char* start : {"exact", "opt-cwsc", "opt-cmc", "hcwsc", "hcmc",
                            "lp-rounding", "cwsc", "cmc"}) {
    std::string at = start;
    int hops = 0;
    while (const std::string* next = ladder.FallbackFor(at)) {
      at = *next;
      ASSERT_LT(++hops, 8) << "cycle reached from " << start;
    }
    EXPECT_TRUE(at == "greedy-wsc" || at == "greedy-max-coverage")
        << start << " bottoms out at " << at;
  }
}

// --- fault plan ------------------------------------------------------------

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
