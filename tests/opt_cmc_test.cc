#include "src/pattern/opt_cmc.h"

#include "src/common/bitset.h"

#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/cmc.h"
#include "src/gen/lbl_synth.h"
#include "src/gen/toy.h"
#include "src/pattern/codec.h"
#include "src/table/builder.h"
#include "src/common/rng.h"
#include "src/pattern/pattern_system.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using pattern::CostFunction;
using pattern::CostKind;
using pattern::PatternStats;
using pattern::RunOptimizedCmc;

TEST(OptCmcTest, RejectsBadOptions) {
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  CmcOptions opts;
  opts.k = 0;
  EXPECT_TRUE(RunOptimizedCmc(table, cost, opts).status().IsInvalidArgument());
  opts = CmcOptions{};
  opts.b = -1;
  EXPECT_TRUE(RunOptimizedCmc(table, cost, opts).status().IsInvalidArgument());
}

TEST(OptCmcTest, ZeroTargetIsEmpty) {
  Table table = gen::MakeEntitiesTable();
  CmcOptions opts;
  opts.coverage_fraction = 0.0;
  auto solution = RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->patterns.empty());
}

TEST(OptCmcTest, MeetsRelaxedTargetWithinSetBound) {
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  for (std::size_t k : {1u, 2u, 3u}) {
    for (double s : {0.3, 0.6, 1.0}) {
      CmcOptions opts;
      opts.k = k;
      opts.coverage_fraction = s;
      auto solution = RunOptimizedCmc(table, cost, opts);
      ASSERT_TRUE(solution.ok())
          << "k=" << k << " s=" << s << ": " << solution.status().ToString();
      const std::size_t relaxed = SetSystem::CoverageTarget(
          (1.0 - 1.0 / M_E) * s, table.num_rows());
      EXPECT_GE(solution->covered, relaxed);
      EXPECT_LE(solution->patterns.size(), CmcMaxSelectable(k, 0.0, 1));
    }
  }
}

TEST(OptCmcTest, StrictModeReachesFullTarget) {
  Table table = gen::MakeEntitiesTable();
  CmcOptions opts;
  opts.k = 2;
  opts.coverage_fraction = 9.0 / 16.0;
  opts.relax_coverage = false;
  auto solution = RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts);
  ASSERT_TRUE(solution.ok());
  EXPECT_GE(solution->covered, 9u);
}

TEST(OptCmcTest, EpsilonVariantBoundsSolutionSize) {
  Table table = gen::MakeEntitiesTable();
  CmcOptions opts;
  opts.k = 3;
  opts.coverage_fraction = 1.0;
  opts.epsilon = 1.0;
  opts.relax_coverage = false;
  auto solution = RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts);
  ASSERT_TRUE(solution.ok());
  EXPECT_LE(solution->patterns.size(),
            static_cast<std::size_t>((1.0 + opts.epsilon) * double(opts.k)));
  EXPECT_EQ(solution->covered, 16u);
}

TEST(OptCmcTest, SelectionsAreDistinctPatterns) {
  Table table = gen::MakeEntitiesTable();
  CmcOptions opts;
  opts.k = 3;
  opts.coverage_fraction = 0.9;
  auto solution = RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts);
  ASSERT_TRUE(solution.ok());
  for (std::size_t i = 0; i < solution->patterns.size(); ++i) {
    for (std::size_t j = i + 1; j < solution->patterns.size(); ++j) {
      EXPECT_FALSE(solution->patterns[i] == solution->patterns[j]);
    }
  }
}

TEST(OptCmcTest, SolutionCostMatchesRecomputation) {
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  CmcOptions opts;
  opts.k = 2;
  opts.coverage_fraction = 0.6;
  auto solution = RunOptimizedCmc(table, cost, opts);
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

TEST(OptCmcTest, BudgetRoundsAreCounted) {
  Table table = gen::MakeEntitiesTable();
  PatternStats stats;
  CmcOptions opts;
  opts.k = 2;
  opts.coverage_fraction = 9.0 / 16.0;
  opts.relax_coverage = false;
  auto solution =
      RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_GE(stats.budget_rounds, 1u);
  EXPECT_GT(stats.final_budget, 0.0);
  EXPECT_GT(stats.patterns_considered, 0u);
}

TEST(OptCmcTest, CoverageMatchesGenericCmcOnToy) {
  // The optimized and unoptimized CMC need not pick identical patterns (the
  // lattice pop order vs per-level greedy differ), but both must satisfy
  // the same coverage/size envelope with comparable cost.
  Table table = gen::MakeEntitiesTable();
  CostFunction cost(CostKind::kMax);
  auto system = pattern::PatternSystem::Build(table, cost);
  ASSERT_TRUE(system.ok());
  CmcOptions opts;
  opts.k = 2;
  opts.coverage_fraction = 9.0 / 16.0;
  opts.relax_coverage = false;
  auto generic = RunCmc(system->set_system(), opts);
  auto optimized = RunOptimizedCmc(table, cost, opts);
  ASSERT_TRUE(generic.ok());
  ASSERT_TRUE(optimized.ok());
  EXPECT_GE(optimized->covered, 9u);
  EXPECT_GE(generic->solution.covered, 9u);
  EXPECT_LE(optimized->patterns.size(), CmcMaxSelectable(opts.k, 0.0, 1));
}

TEST(OptCmcTest, GenericKeyFallbackHandlesWideTables) {
  // Domains too wide for the 64-bit packed codec force the Pattern-keyed
  // implementation path; results must still satisfy the CMC envelope.
  TableBuilder builder({"a", "b", "c", "d", "e", "f"}, "m");
  Rng rng(55);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::string> row;
    std::vector<std::string_view> views;
    for (int attr = 0; attr < 6; ++attr) {
      // active domains of ~2900 values need 12 bits each; 6 * 12 = 72 > 64.
      row.push_back("v" + std::to_string(rng.NextBounded(40'000)));
    }
    for (auto& v : row) views.push_back(v);
    ASSERT_TRUE(builder.AddRow(views, rng.NextDouble(1.0, 50.0)).ok());
  }
  Table table = std::move(builder).Build();
  ASSERT_FALSE(pattern::PatternCodec(table).fits());

  CmcOptions opts;
  opts.k = 3;
  opts.coverage_fraction = 0.4;
  auto solution = RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  const std::size_t relaxed = SetSystem::CoverageTarget(
      (1.0 - 1.0 / M_E) * 0.4, table.num_rows());
  EXPECT_GE(solution->covered, relaxed);
  EXPECT_LE(solution->patterns.size(), CmcMaxSelectable(3, 0.0, 1));
}

void ExpectPinned(const Table& table, std::size_t k, double fraction,
                  const std::vector<std::string>& patterns, double cost,
                  std::size_t considered, std::size_t rounds,
                  double final_budget) {
  CmcOptions opts;
  opts.k = k;
  opts.coverage_fraction = fraction;
  PatternStats stats;
  auto solution =
      RunOptimizedCmc(table, CostFunction(CostKind::kMax), opts, &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  std::vector<std::string> picked;
  for (const auto& p : solution->patterns) picked.push_back(p.ToString(table));
  EXPECT_EQ(picked, patterns);
  EXPECT_DOUBLE_EQ(solution->total_cost, cost);
  EXPECT_EQ(stats.patterns_considered, considered);
  EXPECT_EQ(stats.candidates_admitted, considered);
  EXPECT_EQ(stats.budget_rounds, rounds);
  EXPECT_DOUBLE_EQ(stats.final_budget, final_budget);
}

TEST(OptCmcTest, PackedKeyTieBreakIsPinned) {
  // Packed keys break marginal-benefit ties by integer order, not by
  // CanonicalLess, so neither Fig. 2 nor hcmc is an oracle for this path
  // (hcmc on flat hierarchies considers 52 patterns in the first case).
  // These selections and counters were recorded from the packed path.
  const Table toy = gen::MakeEntitiesTable();
  ASSERT_TRUE(pattern::PatternCodec(toy).fits());
  ExpectPinned(toy, 1, 0.3, {"{Type=B, Location=ALL}"}, 24, 62, 6, 32);
  ExpectPinned(toy, 3, 0.3,
               {"{Type=B, Location=South}", "{Type=A, Location=North}"}, 6,
               42, 2, 6);

  gen::LblSynthSpec spec;
  spec.num_rows = 300;
  spec.seed = 17;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(pattern::PatternCodec(*trace).fits());
  ExpectPinned(
      *trace, 3, 0.3,
      {"{protocol=smtp, localhost=ALL, remotehost=ALL, endstate=ALL, "
       "flags=ALL}"},
      66.20188651696246, 4596, 9, 74.930025800779788);
  ExpectPinned(
      *trace, 10, 0.5,
      {"{protocol=smtp, localhost=ALL, remotehost=ALL, endstate=ALL, "
       "flags=ALL}",
       "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, "
       "flags=f5}",
       "{protocol=telnet, localhost=ALL, remotehost=rh0, endstate=ALL, "
       "flags=ALL}",
       "{protocol=ALL, localhost=ALL, remotehost=rh2, endstate=ALL, "
       "flags=f0}",
       "{protocol=ALL, localhost=lh0, remotehost=rh0, endstate=ALL, "
       "flags=ALL}"},
      263.10216638754474, 5470, 8, 124.883376334633);
}

TEST(OptCmcTest, ScaleRunStaysWithinEnumerationCount) {
  gen::LblSynthSpec spec;
  spec.num_rows = 1500;
  spec.seed = 8;
  auto table = gen::MakeLblSynth(spec);
  ASSERT_TRUE(table.ok());
  auto enumerated = pattern::EnumerateAllPatterns(*table);
  ASSERT_TRUE(enumerated.ok());
  PatternStats stats;
  CmcOptions opts;
  opts.k = 10;
  opts.coverage_fraction = 0.3;
  auto solution = RunOptimizedCmc(*table, CostFunction(CostKind::kMax), opts,
                                  &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  // Per-round considered patterns cannot exceed the total distinct pattern
  // count; across rounds the ratio to enumeration measures the Fig. 6 win.
  EXPECT_LE(stats.patterns_considered,
            stats.budget_rounds * enumerated->size());
}

}  // namespace
}  // namespace scwsc
