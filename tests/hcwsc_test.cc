#include "src/hierarchy/hcwsc.h"

#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/gen/lbl_synth.h"
#include "src/gen/toy.h"
#include "src/hierarchy/bucketize.h"
#include "src/hierarchy/henumerate.h"
#include "src/pattern/opt_cwsc.h"
#include "src/pattern/pattern_system.h"
#include "src/table/builder.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using hierarchy::AttributeHierarchy;
using hierarchy::EnumerateAllHPatterns;
using hierarchy::HPattern;
using hierarchy::HPatternSystem;
using hierarchy::RunHierarchicalCwsc;
using hierarchy::TableHierarchy;
using pattern::CostFunction;
using pattern::CostKind;

std::vector<std::pair<std::string, std::string>> LocationEdges() {
  return {
      {"West", "Western"},      {"Northwest", "Western"},
      {"Southwest", "Western"}, {"East", "Eastern"},
      {"Northeast", "Eastern"}, {"North", "Central"},
      {"South", "Central"},
  };
}

TableHierarchy ToyHierarchy(const Table& table) {
  auto loc = AttributeHierarchy::Build(table.dictionary(1), LocationEdges());
  EXPECT_TRUE(loc.ok());
  auto th = TableHierarchy::Build(table, {{1, *loc}});
  EXPECT_TRUE(th.ok());
  return std::move(th).value();
}

TEST(HEnumerateTest, FlatHierarchyReproducesFlatEnumeration) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy flat = TableHierarchy::Flat(table);
  auto hpatterns = EnumerateAllHPatterns(table, flat);
  ASSERT_TRUE(hpatterns.ok());
  auto flat_patterns = pattern::EnumerateAllPatterns(table);
  ASSERT_TRUE(flat_patterns.ok());
  ASSERT_EQ(hpatterns->size(), flat_patterns->size());  // 24 on the toy
  for (std::size_t i = 0; i < hpatterns->size(); ++i) {
    EXPECT_EQ((*hpatterns)[i].rows, (*flat_patterns)[i].rows) << i;
  }
}

TEST(HEnumerateTest, HierarchyAddsRegionPatterns) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy th = ToyHierarchy(table);
  auto hpatterns = EnumerateAllHPatterns(table, th);
  ASSERT_TRUE(hpatterns.ok());
  // Flat: 24. Regions add {ALL,A,B} x {Western, Eastern, Central} = 9.
  EXPECT_EQ(hpatterns->size(), 33u);
  // Every pattern's rows agree with direct matching.
  for (const auto& ep : *hpatterns) {
    std::vector<RowId> expected;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (ep.pattern.Matches(table, th, r)) expected.push_back(r);
    }
    EXPECT_EQ(ep.rows, expected) << ep.pattern.ToString(table, th);
  }
}

TEST(HEnumerateTest, SystemCostsMatchCostFunction) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy th = ToyHierarchy(table);
  CostFunction cost(CostKind::kMax);
  auto system = HPatternSystem::Build(table, th, cost);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->num_patterns(), 33u);
  EXPECT_TRUE(system->set_system().HasUniverseSet());
}

TEST(HCwscTest, FlatHierarchyMatchesFlatOptimizedCwsc) {
  // With all-flat hierarchies the hierarchical solver must select exactly
  // the flat solver's patterns, and count the same lattice work, on the toy
  // table and on a synthetic trace.
  gen::LblSynthSpec spec;
  spec.num_rows = 300;
  spec.seed = 17;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());
  std::vector<Table> tables;
  tables.push_back(gen::MakeEntitiesTable());
  tables.push_back(std::move(*trace));
  CostFunction cost(CostKind::kMax);
  for (const Table& table : tables) {
    TableHierarchy flat = TableHierarchy::Flat(table);
    for (std::size_t k : {1u, 2u, 4u}) {
      for (double s : {0.3, 9.0 / 16.0, 0.9}) {
        const std::string where = "rows=" +
                                  std::to_string(table.num_rows()) +
                                  " k=" + std::to_string(k) +
                                  " s=" + std::to_string(s);
        pattern::PatternStats hier_stats;
        pattern::PatternStats flat_stats;
        auto hier = RunHierarchicalCwsc(table, flat, cost, {k, s}, &hier_stats);
        auto opt = pattern::RunOptimizedCwsc(table, cost, {k, s}, &flat_stats);
        ASSERT_EQ(hier.ok(), opt.ok()) << where;
        if (!hier.ok()) continue;
        ASSERT_EQ(hier->patterns.size(), opt->patterns.size()) << where;
        for (std::size_t p = 0; p < hier->patterns.size(); ++p) {
          // Node ids of leaf constraints coincide with flat ValueIds.
          for (std::size_t a = 0; a < table.num_attributes(); ++a) {
            const bool hw = hier->patterns[p].is_wildcard(a);
            const bool fw = opt->patterns[p].is_wildcard(a);
            ASSERT_EQ(hw, fw) << where;
            if (!hw) {
              EXPECT_EQ(hier->patterns[p].node(a), opt->patterns[p].value(a))
                  << where;
            }
          }
        }
        EXPECT_EQ(hier->total_cost, opt->total_cost) << where;
        EXPECT_EQ(hier->covered, opt->covered) << where;
        EXPECT_EQ(hier_stats.patterns_considered,
                  flat_stats.patterns_considered)
            << where;
        EXPECT_EQ(hier_stats.candidates_admitted,
                  flat_stats.candidates_admitted)
            << where;
      }
    }
  }
}

TEST(HCwscTest, MatchesUnoptimizedCwscOverEnumeratedHierarchy) {
  // The §V-C1 equivalence, lifted to hierarchies: lattice-optimized CWSC
  // equals Fig. 2 over the fully enumerated hierarchical pattern system.
  Table table = gen::MakeEntitiesTable();
  TableHierarchy th = ToyHierarchy(table);
  CostFunction cost(CostKind::kMax);
  auto system = HPatternSystem::Build(table, th, cost);
  ASSERT_TRUE(system.ok());

  for (std::size_t k : {1u, 2u, 3u, 5u}) {
    for (double s : {0.25, 0.5, 9.0 / 16.0, 0.8, 1.0}) {
      CwscOptions opts{k, s};
      auto unopt = RunCwsc(system->set_system(), opts);
      auto opt = RunHierarchicalCwsc(table, th, cost, opts);
      ASSERT_EQ(unopt.ok(), opt.ok()) << "k=" << k << " s=" << s;
      if (!unopt.ok()) continue;
      ASSERT_EQ(opt->patterns.size(), unopt->sets.size())
          << "k=" << k << " s=" << s;
      for (std::size_t p = 0; p < opt->patterns.size(); ++p) {
        EXPECT_EQ(opt->patterns[p], system->pattern(unopt->sets[p]))
            << "k=" << k << " s=" << s << " pick " << p;
      }
      EXPECT_NEAR(opt->total_cost, unopt->total_cost, 1e-9);
    }
  }
}

TEST(HCwscTest, RegionNodeWinsWhenItIsCheaper) {
  // An internal node must be selected when it is the gain-optimal qualified
  // set: cities c1..c4 roll up into two regions; only RegionX's subtree is
  // uniformly cheap, and no single city reaches the coverage threshold.
  TableBuilder builder({"city"}, "m");
  const char* cities[] = {"c1", "c2", "c3", "c4"};
  for (int rep = 0; rep < 2; ++rep) {
    for (int c = 0; c < 4; ++c) {
      SCWSC_ASSERT_OK(
          builder.AddRow({cities[c]}, c == 3 && rep == 1 ? 100.0 : 5.0));
    }
  }
  Table table = std::move(builder).Build();
  auto region = AttributeHierarchy::Build(
      table.dictionary(0), {{"c1", "RegionX"},
                            {"c2", "RegionX"},
                            {"c3", "RegionY"},
                            {"c4", "RegionY"}});
  ASSERT_TRUE(region.ok());
  auto th = TableHierarchy::Build(table, {{0, *region}});
  ASSERT_TRUE(th.ok());

  // k = 1, target 4/8: cities cover 2 rows each (below threshold); RegionX
  // (4 rows, cost 5) beats RegionY (4 rows, cost 100) and ALL (8, 100).
  auto solution = RunHierarchicalCwsc(table, *th,
                                      CostFunction(CostKind::kMax), {1, 0.5});
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ASSERT_EQ(solution->patterns.size(), 1u);
  EXPECT_EQ(solution->patterns[0].ToString(table, *th), "{city=RegionX}");
  EXPECT_EQ(solution->covered, 4u);
  EXPECT_DOUBLE_EQ(solution->total_cost, 5.0);
}

TEST(HCwscTest, WorksOnSyntheticTraceWithProtocolRollup) {
  gen::LblSynthSpec spec;
  spec.num_rows = 3000;
  spec.seed = 12;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());
  // Roll protocols up into interactive vs batch families.
  std::vector<std::pair<std::string, std::string>> edges;
  for (ValueId v = 0; v < trace->domain_size(0); ++v) {
    const std::string& name = trace->dictionary(0).Name(v);
    const bool interactive =
        name == "telnet" || name == "login" || name == "shell";
    edges.emplace_back(name, interactive ? "interactive" : "batch");
  }
  auto proto = AttributeHierarchy::Build(trace->dictionary(0), edges);
  ASSERT_TRUE(proto.ok());
  auto th = TableHierarchy::Build(*trace, {{0, *proto}});
  ASSERT_TRUE(th.ok());

  pattern::PatternStats stats;
  auto solution = RunHierarchicalCwsc(*trace, *th,
                                      CostFunction(CostKind::kMax),
                                      {10, 0.4}, &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_GE(solution->covered,
            SetSystem::CoverageTarget(0.4, trace->num_rows()));
  EXPECT_LE(solution->patterns.size(), 10u);
  EXPECT_GT(stats.patterns_considered, 0u);
}

TEST(HCwscTest, ValidatesInputs) {
  Table table = gen::MakeEntitiesTable();
  TableHierarchy flat = TableHierarchy::Flat(table);
  CostFunction cost(CostKind::kMax);
  EXPECT_TRUE(RunHierarchicalCwsc(table, flat, cost, {0, 0.5})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunHierarchicalCwsc(table, flat, cost, {2, 1.5})
                  .status()
                  .IsInvalidArgument());
}

TEST(BucketizeTest, EquiDepthBucketsAndRangeHierarchy) {
  Table table = gen::MakeEntitiesTable();
  std::vector<double> ages;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ages.push_back(static_cast<double>(r * 5 + 10));  // 10, 15, ..., 85
  }
  hierarchy::BucketizeOptions opts;
  opts.num_buckets = 4;
  auto bucketized =
      hierarchy::AppendBucketizedAttribute(table, ages, "age", opts);
  ASSERT_TRUE(bucketized.ok()) << bucketized.status().ToString();
  EXPECT_EQ(bucketized->num_buckets, 4u);
  EXPECT_EQ(bucketized->table.num_attributes(), 3u);
  EXPECT_EQ(bucketized->attribute_index, 2u);
  EXPECT_EQ(bucketized->table.schema().attribute_name(2), "age");
  // Equi-depth: each bucket holds 4 of the 16 rows.
  std::vector<std::size_t> counts(bucketized->table.domain_size(2), 0);
  for (RowId r = 0; r < bucketized->table.num_rows(); ++r) {
    ++counts[bucketized->table.value(r, 2)];
  }
  for (std::size_t c : counts) EXPECT_EQ(c, 4u);
  // The binary merge stops at two roots (a single root would duplicate
  // the ALL wildcard); together they cover every bucket.
  EXPECT_EQ(bucketized->hierarchy.roots().size(), 2u);
  std::size_t root_leaves = 0;
  for (auto root : bucketized->hierarchy.roots()) {
    root_leaves += bucketized->hierarchy.LeafCount(root);
  }
  EXPECT_EQ(root_leaves, 4u);
}

TEST(BucketizeTest, RangePatternsAreSelectable) {
  Table table = gen::MakeEntitiesTable();
  std::vector<double> ages;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ages.push_back(static_cast<double>(r));
  }
  auto bucketized = hierarchy::AppendBucketizedAttribute(table, ages, "age");
  ASSERT_TRUE(bucketized.ok());
  auto th = TableHierarchy::Build(
      bucketized->table,
      {{bucketized->attribute_index, bucketized->hierarchy}});
  ASSERT_TRUE(th.ok());
  auto solution =
      RunHierarchicalCwsc(bucketized->table, *th,
                          CostFunction(CostKind::kMax), {3, 0.5});
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_GE(solution->covered, 8u);
}

TEST(BucketizeTest, ValidatesInputs) {
  Table table = gen::MakeEntitiesTable();
  EXPECT_TRUE(hierarchy::AppendBucketizedAttribute(table, {1.0}, "x")
                  .status()
                  .IsInvalidArgument());
  std::vector<double> bad(table.num_rows(), 1.0);
  bad[3] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(hierarchy::AppendBucketizedAttribute(table, bad, "x")
                  .status()
                  .IsInvalidArgument());
  std::vector<double> ok(table.num_rows(), 1.0);
  hierarchy::BucketizeOptions opts;
  opts.num_buckets = 1;
  EXPECT_TRUE(hierarchy::AppendBucketizedAttribute(table, ok, "x", opts)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace scwsc
