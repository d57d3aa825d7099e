#include "src/pattern/enumerate.h"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "src/gen/lbl_synth.h"
#include "src/gen/toy.h"
#include "src/table/builder.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using pattern::CanonicalLess;
using pattern::EnumerateAllPatterns;
using pattern::EnumerateOptions;
using pattern::Pattern;

TEST(EnumerateTest, ToyTableProducesExactly24Patterns) {
  Table table = gen::MakeEntitiesTable();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  EXPECT_EQ(patterns->size(), 24u);
}

TEST(EnumerateTest, EveryEnumeratedPatternBenefitsAreExact) {
  Table table = gen::MakeEntitiesTable();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  for (const auto& ep : *patterns) {
    // Rows are sorted, unique, and match the pattern; no other row matches.
    EXPECT_TRUE(std::is_sorted(ep.rows.begin(), ep.rows.end()));
    std::unordered_set<RowId> set(ep.rows.begin(), ep.rows.end());
    EXPECT_EQ(set.size(), ep.rows.size());
    for (RowId r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(ep.pattern.Matches(table, r), set.count(r) > 0)
          << ep.pattern.ToString(table) << " row " << r;
    }
  }
}

TEST(EnumerateTest, ResultIsCanonicallySorted) {
  Table table = gen::MakeEntitiesTable();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  for (std::size_t i = 0; i + 1 < patterns->size(); ++i) {
    EXPECT_TRUE(
        CanonicalLess((*patterns)[i].pattern, (*patterns)[i + 1].pattern));
  }
}

TEST(EnumerateTest, IncludesAllWildcardsPattern) {
  Table table = gen::MakeEntitiesTable();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  const Pattern root = Pattern::AllWildcards(2);
  auto it = std::find_if(
      patterns->begin(), patterns->end(),
      [&](const pattern::EnumeratedPattern& ep) { return ep.pattern == root; });
  ASSERT_NE(it, patterns->end());
  EXPECT_EQ(it->rows.size(), table.num_rows());
}

TEST(EnumerateTest, SingleAttributeTable) {
  TableBuilder builder({"x"}, "m");
  SCWSC_ASSERT_OK(builder.AddRow({"a"}, 1));
  SCWSC_ASSERT_OK(builder.AddRow({"b"}, 2));
  SCWSC_ASSERT_OK(builder.AddRow({"a"}, 3));
  Table table = std::move(builder).Build();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  // {a}, {b}, {ALL}.
  EXPECT_EQ(patterns->size(), 3u);
}

TEST(EnumerateTest, DuplicateRowsShareOnePatternSet) {
  TableBuilder builder({"x", "y"}, "m");
  for (int i = 0; i < 5; ++i) {
    SCWSC_ASSERT_OK(builder.AddRow({"a", "b"}, i));
  }
  Table table = std::move(builder).Build();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  // (a,b), (a,ALL), (ALL,b), (ALL,ALL): 4 distinct patterns, each with all
  // five rows.
  EXPECT_EQ(patterns->size(), 4u);
  for (const auto& ep : *patterns) EXPECT_EQ(ep.rows.size(), 5u);
}

TEST(EnumerateTest, MaxPatternsGuardTriggers) {
  Table table = gen::MakeEntitiesTable();
  EnumerateOptions opts;
  opts.max_patterns = 5;
  EXPECT_TRUE(
      EnumerateAllPatterns(table, opts).status().IsResourceExhausted());
}

TEST(EnumerateTest, RejectsZeroAttributeTable) {
  TableBuilder builder({}, "m");
  Table table = std::move(builder).Build();
  EXPECT_TRUE(EnumerateAllPatterns(table).status().IsInvalidArgument());
}

/// Checks an enumeration against first principles: exactly the distinct
/// generalizations of the table's rows, in strictly increasing canonical
/// order, each listing exactly the rows Pattern::Matches accepts, ascending.
::testing::AssertionResult IsExactEnumeration(
    const Table& table,
    const std::vector<pattern::EnumeratedPattern>& enumerated) {
  const std::size_t j = table.num_attributes();
  std::vector<Pattern> expected;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    for (std::size_t mask = 0; mask < (std::size_t{1} << j); ++mask) {
      std::vector<ValueId> values(j, pattern::kAll);
      for (std::size_t a = 0; a < j; ++a) {
        if (mask & (std::size_t{1} << a)) values[a] = table.value(r, a);
      }
      expected.emplace_back(std::move(values));
    }
  }
  std::sort(expected.begin(), expected.end(), CanonicalLess);
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  if (enumerated.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << enumerated.size() << " patterns, expected " << expected.size();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(enumerated[i].pattern == expected[i])) {
      return ::testing::AssertionFailure()
             << "pattern " << i << " is "
             << enumerated[i].pattern.ToString(table) << ", expected "
             << expected[i].ToString(table);
    }
    std::vector<RowId> rows;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (expected[i].Matches(table, r)) rows.push_back(r);
    }
    if (enumerated[i].rows != rows) {
      return ::testing::AssertionFailure()
             << "wrong rows for " << expected[i].ToString(table);
    }
  }
  return ::testing::AssertionSuccess();
}

/// A table whose attribute a holds row % domains[a], so every domain is
/// exactly full and rows r and r + domains[a] share attribute a.
Table ModuloTable(const std::vector<std::size_t>& domains, std::size_t rows) {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < domains.size(); ++a) {
    names.push_back("a" + std::to_string(a));
  }
  TableBuilder builder(names, "m");
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> values;
    for (const std::size_t d : domains) {
      values.push_back("v" + std::to_string(r % d));
    }
    const std::vector<std::string_view> views(values.begin(), values.end());
    EXPECT_TRUE(builder.AddRow(views, static_cast<double>(r)).ok());
  }
  return std::move(builder).Build();
}

/// Bits of one (pattern key, row id) word: bit_width(|domain|) per
/// attribute plus the row id's width. The radix path takes tables where
/// this is at most 64, EnumerateGeneric the rest.
unsigned WordBits(const Table& table) {
  unsigned bits = static_cast<unsigned>(std::bit_width(table.num_rows() - 1));
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    bits += static_cast<unsigned>(std::bit_width(table.domain_size(a)));
  }
  return bits;
}

TEST(EnumerateTest, PackedAndGenericPathsAgree) {
  // Radix path: the synthetic trace's five attributes over 300 rows.
  gen::LblSynthSpec spec;
  spec.num_rows = 300;
  spec.seed = 17;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());
  EXPECT_LE(WordBits(*trace), 64u);
  auto packed = EnumerateAllPatterns(*trace);
  ASSERT_TRUE(packed.ok());
  EXPECT_TRUE(IsExactEnumeration(*trace, *packed));

  // Generic path: 8 attributes of 130-200 values take 8 key bits each, 64
  // in all, and 200 rows need 8 more.
  const Table wide =
      ModuloTable({200, 190, 180, 170, 160, 150, 140, 130}, 200);
  EXPECT_EQ(WordBits(wide), 72u);
  auto generic = EnumerateAllPatterns(wide);
  ASSERT_TRUE(generic.ok());
  EXPECT_TRUE(IsExactEnumeration(wide, *generic));

  // Domains of exactly 2^b - 1 values put ALL's all-ones code right after
  // the largest value; domains of 2^b values take one more bit.
  const Table edges = ModuloTable({7, 8, 1, 2, 3, 4}, 168);
  EXPECT_LE(WordBits(edges), 64u);
  auto edge_patterns = EnumerateAllPatterns(edges);
  ASSERT_TRUE(edge_patterns.ok());
  EXPECT_TRUE(IsExactEnumeration(edges, *edge_patterns));
}

TEST(EnumerateTest, MembershipCountIdentityHoldsOnToy) {
  Table table = gen::MakeEntitiesTable();
  auto patterns = EnumerateAllPatterns(table);
  ASSERT_TRUE(patterns.ok());
  std::size_t total = 0;
  for (const auto& ep : *patterns) total += ep.rows.size();
  EXPECT_EQ(total, table.num_rows() * 4);  // 2^2 generalizations per row
}

}  // namespace
}  // namespace scwsc
