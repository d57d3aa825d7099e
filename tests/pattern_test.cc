#include "src/pattern/pattern.h"

#include <algorithm>
#include <numeric>

#include <unordered_set>

#include "gtest/gtest.h"
#include "src/gen/toy.h"
#include "src/pattern/lattice.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using pattern::CanonicalLess;
using pattern::kAll;
using pattern::Pattern;
using pattern::PatternHash;
using test::MakePattern;

TEST(PatternTest, AllWildcardsHasNoConstants) {
  Pattern p = Pattern::AllWildcards(3);
  EXPECT_EQ(p.num_attributes(), 3u);
  EXPECT_EQ(p.num_constants(), 0u);
  for (std::size_t a = 0; a < 3; ++a) EXPECT_TRUE(p.is_wildcard(a));
}

TEST(PatternTest, WithValueAndWithWildcardRoundTrip) {
  Pattern p = Pattern::AllWildcards(2);
  Pattern child = p.WithValue(1, 5);
  EXPECT_EQ(child.num_constants(), 1u);
  EXPECT_EQ(child.value(1), 5u);
  EXPECT_TRUE(child.is_wildcard(0));
  EXPECT_EQ(child.WithWildcard(1), p);
}

TEST(PatternTest, MatchesAgreesWithPaperSemantics) {
  Table table = gen::MakeEntitiesTable();
  // {Type=ALL, Location=West} covers records 1 and 7 (ids 0 and 6).
  Pattern west = MakePattern(table, {"*", "West"});
  std::vector<RowId> matched;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (west.Matches(table, r)) matched.push_back(r);
  }
  EXPECT_EQ(matched, (std::vector<RowId>{0, 6}));

  // {Type=B, Location=South} covers records 3 and 13 (ids 2 and 12).
  Pattern bsouth = MakePattern(table, {"B", "South"});
  matched.clear();
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (bsouth.Matches(table, r)) matched.push_back(r);
  }
  EXPECT_EQ(matched, (std::vector<RowId>{2, 12}));
}

TEST(PatternTest, AllWildcardsMatchesEverything) {
  Table table = gen::MakeEntitiesTable();
  Pattern all = Pattern::AllWildcards(2);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    EXPECT_TRUE(all.Matches(table, r));
  }
}

TEST(PatternTest, GeneralizesIsReflexiveAndLatticeConsistent) {
  Table table = gen::MakeEntitiesTable();
  Pattern all = Pattern::AllWildcards(2);
  Pattern a_any = MakePattern(table, {"A", "*"});
  Pattern a_west = MakePattern(table, {"A", "West"});
  EXPECT_TRUE(all.Generalizes(a_west));
  EXPECT_TRUE(a_any.Generalizes(a_west));
  EXPECT_TRUE(a_west.Generalizes(a_west));
  EXPECT_FALSE(a_west.Generalizes(a_any));
  EXPECT_FALSE(a_any.Generalizes(MakePattern(table, {"B", "West"})));
}

TEST(PatternTest, ToStringShowsNamesAndWildcards) {
  Table table = gen::MakeEntitiesTable();
  Pattern p = MakePattern(table, {"B", "*"});
  EXPECT_EQ(p.ToString(table), "{Type=B, Location=ALL}");
}

TEST(CanonicalLessTest, ConcreteValuesOrderBeforeAll) {
  Pattern v0({0, kAll});
  Pattern v1({1, kAll});
  Pattern all({kAll, kAll});
  EXPECT_TRUE(CanonicalLess(v0, v1));
  EXPECT_TRUE(CanonicalLess(v1, all));
  EXPECT_TRUE(CanonicalLess(v0, all));
  EXPECT_FALSE(CanonicalLess(all, v0));
  EXPECT_FALSE(CanonicalLess(v0, v0));
}

TEST(CanonicalLessTest, IsAStrictTotalOrderOnEnumeratedPatterns) {
  std::vector<Pattern> patterns;
  for (ValueId a : {ValueId{0}, ValueId{1}, kAll}) {
    for (ValueId b : {ValueId{0}, ValueId{1}, ValueId{2}, kAll}) {
      patterns.push_back(Pattern({a, b}));
    }
  }
  std::sort(patterns.begin(), patterns.end(), CanonicalLess);
  for (std::size_t i = 0; i + 1 < patterns.size(); ++i) {
    EXPECT_TRUE(CanonicalLess(patterns[i], patterns[i + 1]));
    EXPECT_FALSE(CanonicalLess(patterns[i + 1], patterns[i]));
  }
}

TEST(PatternHashTest, EqualPatternsHashEqual) {
  PatternHash hash;
  Pattern a({1, kAll, 3});
  Pattern b({1, kAll, 3});
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_EQ(a, b);
}

TEST(PatternHashTest, WorksInUnorderedSet) {
  std::unordered_set<Pattern, PatternHash> set;
  set.insert(Pattern({0, 1}));
  set.insert(Pattern({0, kAll}));
  set.insert(Pattern({0, 1}));  // duplicate
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(Pattern({0, kAll})));
}

TEST(LatticeTest, GroupChildrenPartitionsRowsPerAttribute) {
  Table table = gen::MakeEntitiesTable();
  Pattern root = Pattern::AllWildcards(2);
  std::vector<RowId> all_rows(table.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), RowId{0});
  auto groups = pattern::GroupChildren(table, root, all_rows);
  // Attribute 0 contributes 2 groups (A, B), attribute 1 contributes 7.
  ASSERT_EQ(groups.size(), 9u);
  std::size_t attr0_rows = 0;
  std::size_t attr1_rows = 0;
  for (const auto& g : groups) {
    if (g.attr == 0) {
      attr0_rows += g.marginal_rows.size();
    } else {
      attr1_rows += g.marginal_rows.size();
    }
  }
  EXPECT_EQ(attr0_rows, 16u);  // partition of all rows
  EXPECT_EQ(attr1_rows, 16u);
}

TEST(LatticeTest, GroupChildrenOnlyExpandsWildcards) {
  Table table = gen::MakeEntitiesTable();
  Pattern p = MakePattern(table, {"A", "*"});
  std::vector<RowId> rows;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (p.Matches(table, r)) rows.push_back(r);
  }
  auto groups = pattern::GroupChildren(table, p, rows);
  for (const auto& g : groups) {
    EXPECT_EQ(g.attr, 1u);  // Type is fixed, only Location expands
  }
  ASSERT_EQ(groups.size(), 7u);  // A appears with 7 locations
}

TEST(LatticeTest, GroupChildrenIsDeterministicallyOrdered) {
  Table table = gen::MakeEntitiesTable();
  Pattern root = Pattern::AllWildcards(2);
  std::vector<RowId> all_rows(table.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), RowId{0});
  auto g1 = pattern::GroupChildren(table, root, all_rows);
  auto g2 = pattern::GroupChildren(table, root, all_rows);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1[i].attr, g2[i].attr);
    EXPECT_EQ(g1[i].value, g2[i].value);
    EXPECT_EQ(g1[i].marginal_rows, g2[i].marginal_rows);
  }
  // Within each attribute, groups are sorted by value id.
  for (std::size_t i = 0; i + 1 < g1.size(); ++i) {
    if (g1[i].attr == g1[i + 1].attr) {
      EXPECT_LT(g1[i].value, g1[i + 1].value);
    }
  }
}

TEST(LatticeTest, GroupChildrenOfLeafIsEmpty) {
  Table table = gen::MakeEntitiesTable();
  Pattern leaf = MakePattern(table, {"A", "West"});
  auto groups = pattern::GroupChildren(table, leaf, {0});
  EXPECT_TRUE(groups.empty());
}

}  // namespace
}  // namespace scwsc
