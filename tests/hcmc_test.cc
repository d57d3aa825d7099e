#include "src/hierarchy/hcmc.h"

#include <cmath>
#include <string>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/rng.h"

#include "gtest/gtest.h"
#include "src/gen/lbl_synth.h"
#include "src/gen/toy.h"
#include "src/hierarchy/henumerate.h"
#include "src/pattern/codec.h"
#include "src/pattern/opt_cmc.h"
#include "src/table/builder.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using hierarchy::AttributeHierarchy;
using hierarchy::RunHierarchicalCmc;
using hierarchy::TableHierarchy;
using pattern::CostFunction;
using pattern::CostKind;

TableHierarchy ToyHierarchy(const Table& table) {
  auto loc = AttributeHierarchy::Build(
      table.dictionary(1), {{"West", "Western"},
                            {"Northwest", "Western"},
                            {"Southwest", "Western"},
                            {"East", "Eastern"},
                            {"Northeast", "Eastern"},
                            {"North", "Central"},
                            {"South", "Central"}});
  EXPECT_TRUE(loc.ok());
  auto th = TableHierarchy::Build(table, {{1, *loc}});
  EXPECT_TRUE(th.ok());
  return std::move(th).value();
}

TEST(HCmcTest, RejectsBadOptions) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy flat = TableHierarchy::Flat(table);
  CostFunction cost(CostKind::kMax);
  CmcOptions opts;
  opts.k = 0;
  EXPECT_TRUE(RunHierarchicalCmc(table, flat, cost, opts)
                  .status()
                  .IsInvalidArgument());
  opts = CmcOptions{};
  opts.epsilon = -1;
  EXPECT_TRUE(RunHierarchicalCmc(table, flat, cost, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(HCmcTest, MeetsEnvelopeOnToyWithHierarchy) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy th = ToyHierarchy(table);
  CostFunction cost(CostKind::kMax);
  for (std::size_t k : {1u, 2u, 3u}) {
    for (double s : {0.3, 0.6, 1.0}) {
      CmcOptions opts;
      opts.k = k;
      opts.coverage_fraction = s;
      auto solution = RunHierarchicalCmc(table, th, cost, opts);
      ASSERT_TRUE(solution.ok())
          << "k=" << k << " s=" << s << ": " << solution.status().ToString();
      const std::size_t relaxed = SetSystem::CoverageTarget(
          (1.0 - 1.0 / M_E) * s, table.num_rows());
      EXPECT_GE(solution->covered, relaxed);
      EXPECT_LE(solution->patterns.size(), CmcMaxSelectable(k, 0.0, 1));
      // Coverage bookkeeping is exact.
      DynamicBitset covered(table.num_rows());
      for (const auto& p : solution->patterns) {
        for (RowId r = 0; r < table.num_rows(); ++r) {
          if (p.Matches(table, th, r)) covered.set(r);
        }
      }
      EXPECT_EQ(solution->covered, covered.count());
    }
  }
}

TEST(HCmcTest, FlatHierarchyTracksFlatOptimizedCmcEnvelope) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy flat = TableHierarchy::Flat(table);
  CostFunction cost(CostKind::kMax);
  CmcOptions opts;
  opts.k = 2;
  opts.coverage_fraction = 9.0 / 16.0;
  opts.relax_coverage = false;
  auto hier = RunHierarchicalCmc(table, flat, cost, opts);
  auto flat_run = pattern::RunOptimizedCmc(table, cost, opts);
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  ASSERT_TRUE(flat_run.ok());
  EXPECT_GE(hier->covered, 9u);
  EXPECT_GE(flat_run->covered, 9u);
  // Same lattice, but not the same tie-break: the toy table packs into 64
  // bits, so the flat solver orders equal marginal benefits by packed key
  // while hcmc uses CanonicalLess, and the two may pop (and pick) different
  // patterns. Here they still agree on size and cost.
  ASSERT_EQ(hier->patterns.size(), flat_run->patterns.size());
  EXPECT_NEAR(hier->total_cost, flat_run->total_cost, 1e-9);
}

TEST(HCmcTest, FlatHierarchyMatchesFlatOptimizedCmcOnWideTables) {
  // Too wide for PatternCodec, the flat solver keys patterns by Pattern and
  // breaks ties by CanonicalLess, exactly as hcmc does on flat hierarchies:
  // both must then pop the same lattice, round for round.
  TableBuilder builder({"a", "b", "c", "d", "e", "f", "g", "h"}, "m");
  Rng rng(61);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::string> row;
    for (int attr = 0; attr < 8; ++attr) {
      // Six attributes of ~990 values need 10 bits each; 6 * 10 + 2 * 4
      // = 68 > 64.
      row.push_back("v" + std::to_string(rng.NextBounded(attr < 6 ? 40'000
                                                                  : 7)));
    }
    std::vector<std::string_view> views(row.begin(), row.end());
    SCWSC_ASSERT_OK(builder.AddRow(views, rng.NextDouble(1.0, 50.0)));
  }
  Table table = std::move(builder).Build();
  ASSERT_FALSE(pattern::PatternCodec(table).fits());
  TableHierarchy flat = TableHierarchy::Flat(table);

  for (CostKind kind : {CostKind::kMax, CostKind::kSum}) {
    const CostFunction cost(kind);
    for (std::size_t k : {1u, 3u, 10u}) {
      for (double s : {0.3, 0.5, 0.9}) {
        const std::string where = cost.Name() + " k=" + std::to_string(k) +
                                  " s=" + std::to_string(s);
        CmcOptions opts;
        opts.k = k;
        opts.coverage_fraction = s;
        pattern::PatternStats hier_stats;
        pattern::PatternStats flat_stats;
        auto hier = RunHierarchicalCmc(table, flat, cost, opts, &hier_stats);
        auto opt = pattern::RunOptimizedCmc(table, cost, opts, &flat_stats);
        ASSERT_TRUE(hier.ok()) << where << ": " << hier.status().ToString();
        ASSERT_TRUE(opt.ok()) << where << ": " << opt.status().ToString();
        ASSERT_EQ(hier->patterns.size(), opt->patterns.size()) << where;
        for (std::size_t p = 0; p < opt->patterns.size(); ++p) {
          EXPECT_EQ(hier->patterns[p].ToString(table, flat),
                    opt->patterns[p].ToString(table))
              << where << " pick " << p;
        }
        EXPECT_EQ(hier->total_cost, opt->total_cost) << where;
        EXPECT_EQ(hier->covered, opt->covered) << where;
        EXPECT_EQ(hier_stats.patterns_considered,
                  flat_stats.patterns_considered)
            << where;
        EXPECT_EQ(hier_stats.budget_rounds, flat_stats.budget_rounds)
            << where;
      }
    }
  }
}

TEST(HCmcTest, SelectsWithinHierarchyOnTrace) {
  gen::LblSynthSpec spec;
  spec.num_rows = 2000;
  spec.seed = 9;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());
  std::vector<std::pair<std::string, std::string>> edges;
  for (ValueId v = 0; v < trace->domain_size(3); ++v) {
    const std::string& name = trace->dictionary(3).Name(v);
    edges.emplace_back(name, name == "SF" ? "normal" : "abnormal");
  }
  auto states = AttributeHierarchy::Build(trace->dictionary(3), edges);
  ASSERT_TRUE(states.ok());
  auto th = TableHierarchy::Build(*trace, {{3, *states}});
  ASSERT_TRUE(th.ok());

  pattern::PatternStats stats;
  CmcOptions opts;
  opts.k = 8;
  opts.coverage_fraction = 0.35;
  auto solution = RunHierarchicalCmc(*trace, *th,
                                     CostFunction(CostKind::kMax), opts,
                                     &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  const std::size_t relaxed = SetSystem::CoverageTarget(
      (1.0 - 1.0 / M_E) * 0.35, trace->num_rows());
  EXPECT_GE(solution->covered, relaxed);
  EXPECT_LE(solution->patterns.size(), CmcMaxSelectable(8, 0.0, 1));
  EXPECT_GE(stats.budget_rounds, 1u);
}

TEST(HCmcTest, ZeroTargetIsEmpty) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy flat = TableHierarchy::Flat(table);
  CmcOptions opts;
  opts.coverage_fraction = 0.0;
  auto solution =
      RunHierarchicalCmc(table, flat, CostFunction(CostKind::kMax), opts);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->patterns.empty());
}

}  // namespace
}  // namespace scwsc
