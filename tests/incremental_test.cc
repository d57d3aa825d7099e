#include "src/ext/incremental.h"

#include <cmath>

#include "src/common/bitset.h"

#include "gtest/gtest.h"
#include "src/gen/lbl_synth.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using ext::IncrementalCwsc;
using ext::IncrementalOptions;
using ext::RepairPolicy;
using pattern::CostFunction;
using pattern::CostKind;

std::vector<std::vector<std::string>> ToRows(const Table& t, std::size_t lo,
                                             std::size_t hi) {
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = lo; r < hi && r < t.num_rows(); ++r) {
    std::vector<std::string> row;
    for (std::size_t a = 0; a < t.num_attributes(); ++a) {
      row.push_back(t.value_name(static_cast<RowId>(r), a));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<double> ToMeasures(const Table& t, std::size_t lo,
                               std::size_t hi) {
  std::vector<double> m;
  for (std::size_t r = lo; r < hi && r < t.num_rows(); ++r) {
    m.push_back(t.measure(static_cast<RowId>(r)));
  }
  return m;
}

IncrementalOptions Opts(RepairPolicy policy) {
  IncrementalOptions opts;
  opts.k = 6;
  opts.coverage_fraction = 0.4;
  opts.policy = policy;
  return opts;
}

class IncrementalTest : public ::testing::TestWithParam<RepairPolicy> {};

TEST_P(IncrementalTest, SolutionStaysFeasibleAcrossBatches) {
  gen::LblSynthSpec spec;
  spec.num_rows = 1200;
  spec.seed = 21;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());

  IncrementalCwsc inc({"protocol", "localhost", "remotehost", "endstate",
                       "flags"},
                      "session_length", CostFunction(CostKind::kMax),
                      Opts(GetParam()));

  const std::size_t batch = 200;
  for (std::size_t lo = 0; lo < trace->num_rows(); lo += batch) {
    SCWSC_ASSERT_OK(inc.Append(ToRows(*trace, lo, lo + batch),
                               ToMeasures(*trace, lo, lo + batch)));
    ASSERT_NE(inc.table(), nullptr);
    const std::size_t n = inc.table()->num_rows();
    const std::size_t target = SetSystem::CoverageTarget(0.4, n);
    EXPECT_GE(inc.solution().covered, target) << "after " << n << " rows";
    EXPECT_LE(inc.solution().patterns.size(), 6u);
  }
  EXPECT_EQ(inc.num_rows(), trace->num_rows());
  EXPECT_EQ(inc.stats().batches, (trace->num_rows() + batch - 1) / batch);
}

TEST_P(IncrementalTest, CoverageAccountingMatchesDirectRecount) {
  gen::LblSynthSpec spec;
  spec.num_rows = 400;
  spec.seed = 5;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());

  IncrementalCwsc inc({"protocol", "localhost", "remotehost", "endstate",
                       "flags"},
                      "session_length", CostFunction(CostKind::kMax),
                      Opts(GetParam()));
  SCWSC_ASSERT_OK(inc.Append(ToRows(*trace, 0, 400), ToMeasures(*trace, 0, 400)));

  const Table& t = *inc.table();
  DynamicBitset covered(t.num_rows());
  for (const auto& p : inc.solution().patterns) {
    for (RowId r = 0; r < t.num_rows(); ++r) {
      if (p.Matches(t, r)) covered.set(r);
    }
  }
  EXPECT_EQ(inc.solution().covered, covered.count());
}

INSTANTIATE_TEST_SUITE_P(Policies, IncrementalTest,
                         ::testing::Values(RepairPolicy::kRecompute,
                                           RepairPolicy::kRepair),
                         [](const ::testing::TestParamInfo<RepairPolicy>& i) {
                           return i.param == RepairPolicy::kRecompute
                                      ? "Recompute"
                                      : "Repair";
                         });

TEST(IncrementalTest, RepairPolicyAvoidsSomeFullRecomputes) {
  gen::LblSynthSpec spec;
  spec.num_rows = 1500;
  spec.seed = 33;
  auto trace = gen::MakeLblSynth(spec);
  ASSERT_TRUE(trace.ok());

  IncrementalCwsc repair({"protocol", "localhost", "remotehost", "endstate",
                          "flags"},
                         "session_length", CostFunction(CostKind::kMax),
                         Opts(RepairPolicy::kRepair));
  const std::size_t batch = 150;
  for (std::size_t lo = 0; lo < trace->num_rows(); lo += batch) {
    SCWSC_ASSERT_OK(repair.Append(ToRows(*trace, lo, lo + batch),
                                  ToMeasures(*trace, lo, lo + batch)));
  }
  // Repair mode should resolve at least one batch without a full solve
  // (either a no-op or a patch).
  EXPECT_GT(repair.stats().repairs + repair.stats().no_op_batches, 0u)
      << "repairs=" << repair.stats().repairs
      << " no-ops=" << repair.stats().no_op_batches
      << " full=" << repair.stats().full_recomputes;
}

TEST(IncrementalTest, RejectsMalformedBatches) {
  IncrementalCwsc inc({"a", "b"}, "m", CostFunction(CostKind::kMax),
                      IncrementalOptions{});
  EXPECT_TRUE(inc.Append({{"x", "y"}}, {}).IsInvalidArgument());
  EXPECT_TRUE(inc.Append({{"x"}}, {1.0}).IsInvalidArgument());
}

TEST(IncrementalTest, RejectedBatchLeavesTheStreamAsItWas) {
  IncrementalCwsc inc({"a", "b"}, "m", CostFunction(CostKind::kMax),
                      IncrementalOptions{});
  SCWSC_ASSERT_OK(inc.Append({{"x", "y"}, {"x", "z"}}, {1.0, 2.0}));
  const Table* table = inc.table();
  ASSERT_NE(table, nullptr);
  const ext::IncrementalStats stats = inc.stats();
  auto expect_unchanged = [&](const char* batch) {
    SCOPED_TRACE(batch);
    EXPECT_EQ(inc.num_rows(), 2u);
    ASSERT_EQ(inc.table(), table);
    EXPECT_EQ(inc.table()->num_rows(), 2u);
    EXPECT_EQ(inc.stats().batches, stats.batches);
    EXPECT_EQ(inc.stats().full_recomputes, stats.full_recomputes);
    EXPECT_EQ(inc.stats().repairs, stats.repairs);
    EXPECT_EQ(inc.stats().no_op_batches, stats.no_op_batches);
  };

  EXPECT_TRUE(inc.Append({{"v", "y"}, {"w", "y"}}, {3.0, std::nan("")})
                  .IsInvalidArgument());
  expect_unchanged("non-finite measure");
  EXPECT_TRUE(
      inc.Append({{"v", "y"}, {"w"}}, {3.0, 4.0}).IsInvalidArgument());
  expect_unchanged("wrong arity");

  SCWSC_ASSERT_OK(inc.Append({{"v", "y"}}, {3.0}));
  EXPECT_EQ(inc.num_rows(), 3u);
  EXPECT_EQ(inc.num_rows(), inc.table()->num_rows());
  EXPECT_EQ(inc.stats().batches, stats.batches + 1);
}

TEST(IncrementalTest, EmptyFirstBatchIsANoOp) {
  IncrementalCwsc inc({"a"}, "m", CostFunction(CostKind::kMax),
                      IncrementalOptions{});
  SCWSC_ASSERT_OK(inc.Append({}, {}));
  EXPECT_EQ(inc.stats().batches, 1u);
  EXPECT_EQ(inc.stats().no_op_batches, 1u);
  EXPECT_EQ(inc.num_rows(), 0u);
  EXPECT_EQ(inc.table(), nullptr);
  EXPECT_TRUE(inc.solution().patterns.empty());
}

TEST(IncrementalTest, EmptyBeforeFirstAppend) {
  IncrementalCwsc inc({"a"}, "m", CostFunction(CostKind::kMax),
                      IncrementalOptions{});
  EXPECT_EQ(inc.table(), nullptr);
  EXPECT_TRUE(inc.solution().patterns.empty());
  EXPECT_EQ(inc.num_rows(), 0u);
}

TEST(IncrementalTest, SingleRowStream) {
  IncrementalOptions opts;
  opts.k = 2;
  opts.coverage_fraction = 1.0;
  IncrementalCwsc inc({"a"}, "m", CostFunction(CostKind::kMax), opts);
  SCWSC_ASSERT_OK(inc.Append({{"x"}}, {5.0}));
  EXPECT_EQ(inc.solution().covered, 1u);
  SCWSC_ASSERT_OK(inc.Append({{"y"}}, {7.0}));
  EXPECT_EQ(inc.solution().covered, 2u);
  EXPECT_LE(inc.solution().patterns.size(), 2u);
}

}  // namespace
}  // namespace scwsc
