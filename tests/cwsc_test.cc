#include "src/core/cwsc.h"

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/instances.h"
#include "src/core/literal.h"
#include "src/core/solution.h"

namespace scwsc {
namespace {

SetSystem MakeSimpleSystem() {
  SetSystem system(10);
  EXPECT_TRUE(system.AddSet({0, 1, 2, 3, 4}, 10.0, "big-cheapish").ok());
  EXPECT_TRUE(system.AddSet({5, 6}, 1.0, "pair").ok());
  EXPECT_TRUE(system.AddSet({7}, 1.0, "single7").ok());
  EXPECT_TRUE(system.AddSet({8}, 1.0, "single8").ok());
  EXPECT_TRUE(system.AddSet({9}, 1.0, "single9").ok());
  EXPECT_TRUE(
      system.AddSet({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 100.0, "universe").ok());
  return system;
}

TEST(CwscTest, RejectsBadOptions) {
  SetSystem system = MakeSimpleSystem();
  EXPECT_TRUE(
      RunCwsc(system, {0, 0.5}).status().IsInvalidArgument());
  EXPECT_TRUE(
      RunCwsc(system, {3, -0.1}).status().IsInvalidArgument());
  EXPECT_TRUE(
      RunCwsc(system, {3, 1.1}).status().IsInvalidArgument());
}

TEST(CwscTest, ZeroCoverageYieldsEmptySolution) {
  SetSystem system = MakeSimpleSystem();
  auto solution = RunCwsc(system, {3, 0.0});
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->sets.empty());
  EXPECT_DOUBLE_EQ(solution->total_cost, 0.0);
}

TEST(CwscTest, MeetsCoverageWithinK) {
  SetSystem system = MakeSimpleSystem();
  for (double fraction : {0.2, 0.5, 0.7, 1.0}) {
    for (std::size_t k : {1u, 2u, 3u, 5u}) {
      auto solution = RunCwsc(system, {k, fraction});
      ASSERT_TRUE(solution.ok())
          << "k=" << k << " s=" << fraction << ": "
          << solution.status().ToString();
      EXPECT_TRUE(SatisfiesConstraints(system, *solution, k, fraction))
          << SolutionToString(system, *solution);
      auto audit = AuditSolution(system, *solution);
      ASSERT_TRUE(audit.ok());
      EXPECT_TRUE(audit->bookkeeping_consistent);
    }
  }
}

TEST(CwscTest, PrefersHighGainQualifiedSets) {
  SetSystem system = MakeSimpleSystem();
  // Target 5/10 elements with k = 1: only the big set or universe qualify
  // (benefit >= 5); the big set has the better gain (5/10 > 10/100).
  auto solution = RunCwsc(system, {1, 0.5});
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->sets.size(), 1u);
  EXPECT_EQ(system.set(solution->sets[0]).label, "big-cheapish");
}

TEST(CwscTest, QualificationThresholdSkipsSmallSets) {
  // With k = 5 and target 5, the first iteration requires benefit >= 1, so
  // greedy-by-gain would pick the cheap singles first; CWSC still finishes
  // within k sets and meets the target.
  SetSystem system = MakeSimpleSystem();
  auto solution = RunCwsc(system, {5, 0.5});
  ASSERT_TRUE(solution.ok());
  EXPECT_LE(solution->sets.size(), 5u);
  EXPECT_GE(solution->covered, 5u);
}

TEST(CwscTest, InfeasibleWithoutQualifiedSets) {
  SetSystem system(10);
  ASSERT_TRUE(system.AddSet({0}, 1.0).ok());
  // Target 5 with k = 1 needs one set of benefit >= 5; none exists.
  auto solution = RunCwsc(system, {1, 0.5});
  EXPECT_TRUE(solution.status().IsInfeasible());
}

TEST(CwscTest, EmptySystemInfeasibleForPositiveTarget) {
  SetSystem system(5);
  EXPECT_TRUE(RunCwsc(system, {2, 0.5}).status().IsInfeasible());
}

TEST(CwscTest, FullCoverageViaUniverseSet) {
  SetSystem system = MakeSimpleSystem();
  auto solution = RunCwsc(system, {1, 1.0});
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->sets.size(), 1u);
  EXPECT_EQ(system.set(solution->sets[0]).label, "universe");
  EXPECT_EQ(solution->covered, 10u);
}

TEST(CwscTest, TieBreaksOnLowerCostThenLowerId) {
  SetSystem system(4);
  ASSERT_TRUE(system.AddSet({0, 1}, 4.0, "expensive").ok());  // gain 0.5
  ASSERT_TRUE(system.AddSet({2, 3}, 4.0, "same").ok());       // gain 0.5
  ASSERT_TRUE(system.AddSet({0, 1, 2, 3}, 8.0, "all").ok());  // gain 0.5
  // All three have gain 0.5. Tie-break: higher count -> "all".
  auto solution = RunCwsc(system, {2, 0.5});
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(system.set(solution->sets[0]).label, "all");
}

TEST(CwscTest, DeterministicAcrossRuns) {
  Rng rng(99);
  RandomSystemSpec spec;
  spec.num_elements = 60;
  spec.num_sets = 40;
  auto system = RandomSetSystem(spec, rng);
  ASSERT_TRUE(system.ok());
  auto s1 = RunCwsc(*system, {4, 0.6});
  auto s2 = RunCwsc(*system, {4, 0.6});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->sets, s2->sets);
}

TEST(CwscTest, RandomInstancesAlwaysSatisfyConstraintsWhenOk) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    RandomSystemSpec spec;
    spec.num_elements = 30 + static_cast<std::size_t>(rng.NextBounded(50));
    spec.num_sets = 10 + static_cast<std::size_t>(rng.NextBounded(60));
    spec.max_set_size = 1 + static_cast<std::size_t>(rng.NextBounded(8));
    auto system = RandomSetSystem(spec, rng);
    ASSERT_TRUE(system.ok());
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextBounded(8));
    const double fraction = rng.NextDouble(0.0, 1.0);
    auto solution = RunCwsc(*system, {k, fraction});
    if (solution.ok()) {
      EXPECT_TRUE(SatisfiesConstraints(*system, *solution, k, fraction))
          << "trial " << trial << ": "
          << SolutionToString(*system, *solution);
    }
  }
}

/// The beacon + carrier shape of the benchmark's 7M-element system, scaled
/// to n = 14,000. Cheap 8-element "beacon" intervals (gain 20) head the
/// lazy heap but fail the |MBen| * i >= rem threshold for most of the run,
/// so every iteration pops and parks them; 64-element "carrier" intervals
/// (gain 6.4) make the picks, and a universe set at one per element keeps
/// the instance feasible.
SetSystem CarrierSystem() {
  constexpr std::size_t kElements = 14000;
  Rng rng(1234);
  SetSystem system(kElements);
  std::vector<ElementId> universe(kElements);
  std::iota(universe.begin(), universe.end(), ElementId{0});
  EXPECT_TRUE(system
                  .AddSet(std::move(universe),
                          static_cast<double>(kElements), "universe")
                  .ok());
  auto add_intervals = [&](std::size_t count, std::size_t length, double cost,
                           const std::string& prefix) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto start =
          static_cast<ElementId>(rng.NextBounded(kElements - length));
      std::vector<ElementId> elements(length);
      std::iota(elements.begin(), elements.end(), start);
      EXPECT_TRUE(system
                      .AddSet(std::move(elements), cost,
                              prefix + std::to_string(i))
                      .ok());
    }
  };
  add_intervals(80, 64, 10.0, "carrier");
  add_intervals(600, 8, 0.4, "beacon");
  return system;
}

TEST(CwscTest, ParkedCandidatesStayIdenticalWithoutRecounts) {
  const SetSystem system = CarrierSystem();
  const CwscOptions options(120, 0.5);
  auto reference = RunCwscLiteral(system, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->sets.empty());

  ScanStats stats;
  auto lazy = RunCwsc(system, options, &stats);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_EQ(lazy->sets, reference->sets);
  EXPECT_EQ(lazy->total_cost, reference->total_cost);
  EXPECT_EQ(lazy->covered, reference->covered);
  // Past the one-off seed, a popped set whose cached count already fails
  // the threshold is parked without a recount.
  EXPECT_LE(stats.sets_considered - system.num_sets(), 4 * lazy->sets.size());
}

// With k >= n + m + 1 the threshold |MBen| >= rem / i cannot bind (i stays
// above rem), so any larger k must pick identically. The product |MBen| * i
// would wrap for k near 2^64 and turn the threshold into noise.
TEST(CwscTest, HugeKPicksAsIfTheThresholdCannotBind) {
  Rng rng(2062);
  for (int trial = 0; trial < 60; ++trial) {
    RandomSystemSpec spec;
    spec.num_elements = 64;
    spec.num_sets = 10 + rng.NextBounded(30);
    spec.max_set_size = 1 + rng.NextBounded(20);
    auto system = RandomSetSystem(spec, rng);
    ASSERT_TRUE(system.ok());
    const double fraction = rng.NextDouble(0.1, 1.0);
    const std::size_t unbound_k =
        system->num_elements() + system->num_sets() + 1;
    const auto fingerprint = [](const Result<Solution>& r) {
      if (!r.ok()) return std::string(StatusCodeToString(r.status().code()));
      std::string out;
      for (SetId id : r->sets) out += std::to_string(id) + ",";
      return out + " covered:" + std::to_string(r->covered);
    };
    const std::string expected =
        fingerprint(RunCwsc(*system, {unbound_k, fraction}));
    const std::string expected_literal =
        fingerprint(RunCwscLiteral(*system, {unbound_k, fraction}));
    EXPECT_EQ(expected_literal, expected) << "trial " << trial;
    for (const std::size_t k :
         {std::size_t{1} << 62, std::size_t{1} << 63, SIZE_MAX}) {
      EXPECT_EQ(fingerprint(RunCwsc(*system, {k, fraction})), expected)
          << "trial " << trial << " k=" << k;
      EXPECT_EQ(fingerprint(RunCwscLiteral(*system, {k, fraction})),
                expected_literal)
          << "trial " << trial << " k=" << k << " (literal)";
    }
  }
}

TEST(CwscTest, ThresholdPredicateMatchesExactProduct) {
  for (std::size_t rem = 1; rem <= 40; ++rem) {
    for (std::size_t i = 1; i <= 60; ++i) {
      for (std::size_t count = 0; count <= 40; ++count) {
        ASSERT_EQ(MeetsCwscThreshold(count, i, rem), count * i >= rem)
            << count << " " << i << " " << rem;
      }
    }
  }
  EXPECT_TRUE(MeetsCwscThreshold(1, SIZE_MAX, 5));
  EXPECT_FALSE(MeetsCwscThreshold(0, SIZE_MAX, 5));
  EXPECT_TRUE(MeetsCwscThreshold(0, 3, 0));
}

}  // namespace
}  // namespace scwsc
