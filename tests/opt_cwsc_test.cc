#include "src/pattern/opt_cwsc.h"

#include <cstdint>

#include "src/common/bitset.h"
#include "src/table/builder.h"

#include "gtest/gtest.h"
#include "src/core/cwsc.h"
#include "src/gen/lbl_synth.h"
#include "src/gen/toy.h"
#include "src/pattern/pattern_system.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using pattern::CostFunction;
using pattern::CostKind;
using pattern::PatternStats;
using pattern::PatternSystem;
using pattern::RunOptimizedCwsc;

TEST(OptCwscTest, RejectsBadOptions) {
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  EXPECT_TRUE(
      RunOptimizedCwsc(table, cost, {0, 0.5}).status().IsInvalidArgument());
  EXPECT_TRUE(
      RunOptimizedCwsc(table, cost, {2, 1.5}).status().IsInvalidArgument());
}

TEST(OptCwscTest, RequiresMeasureColumn) {
  TableBuilder builder({"x"});
  SCWSC_ASSERT_OK(builder.AddRow({"a"}));
  Table table = std::move(builder).Build();
  EXPECT_TRUE(RunOptimizedCwsc(table, CostFunction(CostKind::kMax), {1, 0.5})
                  .status()
                  .IsInvalidArgument());
}

TEST(OptCwscTest, ZeroTargetIsEmpty) {
  Table table = gen::MakeEntitiesTable();
  auto solution =
      RunOptimizedCwsc(table, CostFunction(CostKind::kMax), {2, 0.0});
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->patterns.empty());
}

TEST(OptCwscTest, AlwaysFeasibleOnPatternedData) {
  // The all-wildcards pattern guarantees feasibility for every (k, ŝ).
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  for (std::size_t k : {1u, 2u, 4u, 10u}) {
    for (double s : {0.1, 0.5, 0.9, 1.0}) {
      auto solution = RunOptimizedCwsc(table, cost, {k, s});
      ASSERT_TRUE(solution.ok())
          << "k=" << k << " s=" << s << ": " << solution.status().ToString();
      EXPECT_LE(solution->patterns.size(), k);
      EXPECT_GE(solution->covered,
                SetSystem::CoverageTarget(s, table.num_rows()));
    }
  }
}

TEST(OptCwscTest, KOneFallsBackToBestSinglePattern) {
  Table table = gen::MakeEntitiesTable();
  auto solution =
      RunOptimizedCwsc(table, CostFunction(CostKind::kMax), {1, 1.0});
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->patterns.size(), 1u);
  EXPECT_EQ(solution->patterns[0], pattern::Pattern::AllWildcards(2));
  EXPECT_EQ(solution->covered, 16u);
}

TEST(OptCwscTest, SolutionCostsMatchRecomputation) {
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  auto solution = RunOptimizedCwsc(table, cost, {3, 0.7});
  ASSERT_TRUE(solution.ok());
  double recomputed = 0.0;
  DynamicBitset covered(table.num_rows());
  for (const auto& p : solution->patterns) {
    std::vector<RowId> ben;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (p.Matches(table, r)) {
        ben.push_back(r);
        covered.set(r);
      }
    }
    recomputed += cost.Compute(table, ben);
  }
  EXPECT_NEAR(solution->total_cost, recomputed, 1e-9);
  EXPECT_EQ(solution->covered, covered.count());
}

TEST(OptCwscTest, StatsAreReported) {
  Table table = gen::MakeEntitiesTable();
  PatternStats stats;
  auto solution = RunOptimizedCwsc(table, CostFunction(CostKind::kMax),
                                   {2, 0.5}, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_GT(stats.patterns_considered, 0u);
  EXPECT_GT(stats.candidates_admitted, 0u);
  EXPECT_GE(stats.patterns_considered, stats.candidates_admitted);
}

TEST(OptCwscTest, ConsidersFarFewerPatternsThanEnumerationAtScale) {
  gen::LblSynthSpec spec;
  spec.num_rows = 2000;
  spec.seed = 3;
  auto table = gen::MakeLblSynth(spec);
  ASSERT_TRUE(table.ok());
  CostFunction cost(CostKind::kMax);

  auto enumerated = pattern::EnumerateAllPatterns(*table);
  ASSERT_TRUE(enumerated.ok());

  PatternStats stats;
  auto solution = RunOptimizedCwsc(*table, cost, {10, 0.3}, &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  // Fig. 6's optimized-vs-unoptimized gap: at 2k rows the trace has tens of
  // thousands of distinct patterns while the lattice frontier stays small.
  EXPECT_LT(stats.patterns_considered, enumerated->size() / 2)
      << "considered " << stats.patterns_considered << " of "
      << enumerated->size();
}

// With k >= 2n + 1 the Fig. 3 threshold |MBen| >= rem / i cannot bind (i
// stays at or above rem), so a k near 2^64 must pick the same patterns
// instead of wrapping |MBen| * i into noise.
TEST(OptCwscTest, HugeKPicksAsIfTheThresholdCannotBind) {
  gen::LblSynthSpec spec;
  spec.num_rows = 300;
  auto table = gen::MakeLblSynth(spec);
  ASSERT_TRUE(table.ok());
  CostFunction cost(CostKind::kMax);
  auto reference =
      RunOptimizedCwsc(*table, cost, {2 * table->num_rows() + 1, 0.9});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const std::size_t k :
       {std::size_t{1} << 62, std::size_t{1} << 63, SIZE_MAX}) {
    auto huge = RunOptimizedCwsc(*table, cost, {k, 0.9});
    ASSERT_TRUE(huge.ok()) << "k=" << k << ": " << huge.status().ToString();
    EXPECT_EQ(huge->patterns, reference->patterns) << "k=" << k;
    EXPECT_EQ(huge->total_cost, reference->total_cost) << "k=" << k;
    EXPECT_EQ(huge->covered, reference->covered) << "k=" << k;
  }
}

TEST(OptCwscTest, WorksWithSumCost) {
  Table table = gen::MakeEntitiesTable();
  auto solution =
      RunOptimizedCwsc(table, CostFunction(CostKind::kSum), {3, 0.5});
  ASSERT_TRUE(solution.ok());
  EXPECT_GE(solution->covered, 8u);
}

}  // namespace
}  // namespace scwsc
