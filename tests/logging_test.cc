// Tests for common/logging: the warn-storm rate limiter (repeated warns
// from one call site are suppressed past the burst and counted in
// LogSuppressedCount()), and the message a failed SCWSC_CHECK prints.

#include "src/common/logging.h"

#include <cstdint>

#include "gtest/gtest.h"

namespace scwsc {
namespace {

TEST(LoggingRateLimitTest, WarnStormFromOneSiteIsSuppressed) {
  const std::uint64_t before = LogSuppressedCount();
  // One call site (this macro expansion) hammered far past the burst of
  // 10: the bucket admits roughly the burst (plus a token or two of
  // refill) and suppresses the rest.
  for (int i = 0; i < 200; ++i) {
    SCWSC_LOG_WARN("storm %d", i);
  }
  const std::uint64_t suppressed = LogSuppressedCount() - before;
  EXPECT_GE(suppressed, 150u);
  EXPECT_LT(suppressed, 200u);  // the burst did get through
}

TEST(LoggingRateLimitTest, DistinctSitesHaveIndependentBudgets) {
  const std::uint64_t before = LogSuppressedCount();
  SCWSC_LOG_WARN("site a");
  SCWSC_LOG_WARN("site b");
  SCWSC_LOG_WARN("site c");
  // Three fresh sites, one message each: every bucket starts full, so
  // nothing is suppressed.
  EXPECT_EQ(LogSuppressedCount(), before);
}

TEST(LoggingRateLimitTest, OtherLevelsAreNeverRateLimited) {
  const std::uint64_t before = LogSuppressedCount();
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep the loop quiet on stderr
  for (int i = 0; i < 100; ++i) {
    SCWSC_LOG_INFO("info %d", i);
  }
  SetLogLevel(saved);
  EXPECT_EQ(LogSuppressedCount(), before);
}

TEST(LoggingTest, CheckPrintsItsConditionBeforeTheMessage) {
  int n = 1;
  EXPECT_DEATH(SCWSC_CHECK(n + 1 == 3, "left %s right %s", "a", "b"),
               "Check failed: n \\+ 1 == 3 left a right b");
}

TEST(LoggingTest, CheckFormatsNumbersAndKeepsAPercentInItsCondition) {
  int n = 7;
  double ratio = 0.25;
  EXPECT_DEATH(SCWSC_CHECK(n % 2 == 0, "n=%d ratio=%g", n, ratio),
               "Check failed: n % 2 == 0 n=7 ratio=0.25");
}

TEST(LoggingTest, CheckWithoutAMessagePrintsItsCondition) {
  int n = 1;
  EXPECT_DEATH(SCWSC_CHECK(n > 1), "Check failed: n > 1");
}

}  // namespace
}  // namespace scwsc
