// SnapshotDelta edge cases: bit-identity of delta-applied snapshots against
// from-scratch rebuilds (the serve_soak gate in miniature), version
// chaining, the typed rejections (mixed op families, out-of-range
// indices, hierarchies), and a seeded oracle that replays random chains of
// row deltas against from-scratch table builds.

#include "src/api/delta.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/common/rng.h"
#include "src/core/set_system.h"
#include "src/table/builder.h"

namespace scwsc {
namespace {

using api::AppliedDelta;
using api::ApplyDelta;
using api::InstancePtr;
using api::SnapshotDelta;

constexpr std::size_t kUniverse = 512;

/// A set system over 512 elements whose sets are 64-element blocks.
SetSystem BlockSystem() {
  SetSystem system(kUniverse);
  for (std::size_t block = 0; block < kUniverse / 64; ++block) {
    std::vector<ElementId> elements;
    for (std::size_t e = block * 64; e < (block + 1) * 64; ++e) {
      elements.push_back(static_cast<ElementId>(e));
    }
    auto added = system.AddSet(std::move(elements),
                               1.0 + 0.1 * static_cast<double>(block),
                               "block-" + std::to_string(block));
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  return system;
}

InstancePtr BlockInstance() {
  auto instance = api::InstanceSnapshot::FromSetSystem(BlockSystem());
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return *instance;
}

/// A 256-row table with two low-cardinality attributes, small enough for
/// pattern enumeration.
Table WideTable(std::size_t num_rows = 256) {
  TableBuilder builder({"region", "tier"}, "load");
  for (std::size_t row = 0; row < num_rows; ++row) {
    const std::string region = "r" + std::to_string(row % 4);
    const std::string tier = "t" + std::to_string((row / 4) % 3);
    EXPECT_TRUE(
        builder
            .AddRow({std::string_view(region), std::string_view(tier)},
                    1.0 + static_cast<double>(row % 7))
            .ok());
  }
  return std::move(builder).Build();
}

InstancePtr WideInstance() {
  auto instance = api::InstanceSnapshot::FromTable(
      WideTable(), pattern::CostFunction(pattern::CostKind::kMax));
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return *instance;
}

TEST(DeltaTest, EmptyDeltaKeepsTheHash) {
  InstancePtr parent = BlockInstance();
  auto applied = ApplyDelta(parent, SnapshotDelta{});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->snapshot->content_hash(), parent->content_hash());
  EXPECT_EQ(applied->stats.child_version, 1u);
  EXPECT_EQ(applied->snapshot->delta_version(), 1u);
  EXPECT_EQ(parent->delta_version(), 0u);
}

TEST(DeltaTest, AddOnlySetDeltaMatchesAScratchRebuild) {
  InstancePtr parent = BlockInstance();
  SnapshotDelta delta;
  SnapshotDelta::SetAdd add;
  for (ElementId e = 448; e < 480; ++e) add.elements.push_back(e);
  add.cost = 0.5;
  add.label = "tail-set";
  delta.add_sets.push_back(add);

  auto applied = ApplyDelta(parent, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->stats.sets_added, 1u);
  EXPECT_NE(applied->snapshot->content_hash(), parent->content_hash());

  SetSystem scratch = BlockSystem();
  ASSERT_TRUE(scratch.AddSet(add.elements, add.cost, add.label).ok());
  auto rebuilt = api::InstanceSnapshot::FromSetSystem(std::move(scratch));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(applied->snapshot->content_hash(), (*rebuilt)->content_hash());
}

TEST(DeltaTest, SetDeltaIsBitIdenticalToScratchRebuild) {
  InstancePtr parent = BlockInstance();
  SnapshotDelta delta;
  delta.remove_sets = {2};
  SnapshotDelta::SetAdd add;
  add.elements = {10, 200, 400};
  add.cost = 3.0;
  add.label = "spanning";
  delta.add_sets.push_back(add);

  auto applied = ApplyDelta(parent, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Rebuild the mutated system from scratch: survivors in id order, then
  // the appended set. Hashes must match bit for bit.
  SetSystem scratch(kUniverse);
  auto before_or = parent->set_system();
  ASSERT_TRUE(before_or.ok());
  const SetSystem& before = **before_or;
  for (SetId id = 0; id < before.num_sets(); ++id) {
    if (id == 2) continue;
    const WeightedSet& s = before.set(id);
    ASSERT_TRUE(scratch.AddSet(s.elements, s.cost, s.label).ok());
  }
  ASSERT_TRUE(scratch.AddSet(add.elements, add.cost, add.label).ok());
  auto rebuilt = api::InstanceSnapshot::FromSetSystem(std::move(scratch));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(applied->snapshot->content_hash(), (*rebuilt)->content_hash());
}

TEST(DeltaTest, RemovalMatchesAScratchRebuild) {
  InstancePtr parent = BlockInstance();
  SnapshotDelta delta;
  delta.remove_sets = {0};  // renumbers every later set id

  auto applied = ApplyDelta(parent, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->stats.sets_removed, 1u);
  EXPECT_NE(applied->snapshot->content_hash(), parent->content_hash());

  const SetSystem before = BlockSystem();
  SetSystem scratch(kUniverse);
  for (SetId id = 1; id < before.num_sets(); ++id) {
    const WeightedSet& s = before.set(id);
    ASSERT_TRUE(scratch.AddSet(s.elements, s.cost, s.label).ok());
  }
  auto rebuilt = api::InstanceSnapshot::FromSetSystem(std::move(scratch));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(applied->snapshot->content_hash(), (*rebuilt)->content_hash());
}

TEST(DeltaTest, RetractThenAppendSameRowKeepsTheContentHash) {
  InstancePtr parent = WideInstance();
  const Table& table = parent->table();
  const std::size_t victim = 200;

  SnapshotDelta delta;
  delta.retract_rows = {victim};
  SnapshotDelta::RowAppend append;
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    append.values.push_back(std::string(table.value_name(victim, a)));
  }
  append.measure = table.measure(victim);
  delta.append_rows.push_back(std::move(append));

  auto applied = ApplyDelta(parent, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->stats.rows_retracted, 1u);
  EXPECT_EQ(applied->stats.rows_appended, 1u);
  // Retracting row 200 and re-appending identical values reproduces the
  // same row sequence only when the victim was the last row; here rows
  // shifted, so the hash legitimately changes.
  EXPECT_NE(applied->snapshot->content_hash(), parent->content_hash());

  // Retract-then-append of the *final* row is the identity mutation.
  const RowId last = static_cast<RowId>(table.num_rows() - 1);
  SnapshotDelta identity;
  identity.retract_rows = {last};
  SnapshotDelta::RowAppend same;
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    same.values.push_back(std::string(table.value_name(last, a)));
  }
  same.measure = table.measure(last);
  identity.append_rows.push_back(std::move(same));
  auto unchanged = ApplyDelta(parent, identity);
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_EQ(unchanged->snapshot->content_hash(), parent->content_hash());
}

TEST(DeltaTest, TableDeltaIsBitIdenticalToScratchRebuildAndSolvesEqual) {
  InstancePtr parent = WideInstance();
  SnapshotDelta delta;
  delta.retract_rows = {7, 31};
  for (int i = 0; i < 2; ++i) {
    SnapshotDelta::RowAppend append;
    append.values = {"r9", "t9"};
    append.measure = 2.5;
    delta.append_rows.push_back(std::move(append));
  }
  auto applied = ApplyDelta(parent, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Scratch rebuild over the same mutated row sequence.
  const Table& table = parent->table();
  TableBuilder builder({"region", "tier"}, "load");
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    if (row == 7 || row == 31) continue;
    std::vector<std::string> values;
    for (std::size_t a = 0; a < table.num_attributes(); ++a) {
      values.push_back(
          std::string(table.value_name(static_cast<RowId>(row), a)));
    }
    std::vector<std::string_view> views(values.begin(), values.end());
    ASSERT_TRUE(
        builder.AddRow(views, table.measure(static_cast<RowId>(row))).ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(builder.AddRow({"r9", "t9"}, 2.5).ok());
  }
  auto rebuilt = api::InstanceSnapshot::FromTable(
      std::move(builder).Build(),
      pattern::CostFunction(pattern::CostKind::kMax));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(applied->snapshot->content_hash(), (*rebuilt)->content_hash());

  // And the two snapshots solve identically (same data, same solver).
  for (const InstancePtr& instance :
       {applied->snapshot, static_cast<InstancePtr>(*rebuilt)}) {
    auto request = api::SolveRequest::Builder(instance)
                       .WithK(3)
                       .WithCoverage(0.5)
                       .Build();
    ASSERT_TRUE(request.ok());
    auto result =
        api::SolverRegistry::Global().Solve("opt-cwsc", *request, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  auto request = api::SolveRequest::Builder(applied->snapshot)
                     .WithK(3)
                     .WithCoverage(0.5)
                     .Build();
  ASSERT_TRUE(request.ok());
  auto from_delta =
      api::SolverRegistry::Global().Solve("opt-cwsc", *request, nullptr);
  auto rebuilt_request = api::SolveRequest::Builder(*rebuilt)
                             .WithK(3)
                             .WithCoverage(0.5)
                             .Build();
  ASSERT_TRUE(rebuilt_request.ok());
  auto from_scratch = api::SolverRegistry::Global().Solve(
      "opt-cwsc", *rebuilt_request, nullptr);
  ASSERT_TRUE(from_delta.ok() && from_scratch.ok());
  EXPECT_EQ(from_delta->labels, from_scratch->labels);
  EXPECT_DOUBLE_EQ(from_delta->total_cost, from_scratch->total_cost);
}

TEST(DeltaTest, VersionsChainAcrossApplications) {
  InstancePtr head = BlockInstance();
  for (std::size_t version = 1; version <= 3; ++version) {
    SnapshotDelta delta;
    SnapshotDelta::SetAdd add;
    add.elements = {static_cast<ElementId>(version)};
    add.cost = 1.0;
    add.label = "v" + std::to_string(version);
    delta.add_sets.push_back(std::move(add));
    auto applied = ApplyDelta(head, delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->stats.child_version, version);
    EXPECT_EQ(applied->snapshot->delta_version(), version);
    head = applied->snapshot;
  }
}

TEST(DeltaTest, MixedAndInvalidOpsAreTyped) {
  InstancePtr sets = BlockInstance();
  InstancePtr rows = WideInstance();

  SnapshotDelta row_ops;
  row_ops.retract_rows = {0};
  EXPECT_EQ(ApplyDelta(sets, row_ops).status().code(),
            StatusCode::kInvalidArgument);

  SnapshotDelta set_ops;
  set_ops.remove_sets = {0};
  EXPECT_EQ(ApplyDelta(rows, set_ops).status().code(),
            StatusCode::kInvalidArgument);

  SnapshotDelta out_of_range;
  out_of_range.retract_rows = {100000};
  EXPECT_EQ(ApplyDelta(rows, out_of_range).status().code(),
            StatusCode::kInvalidArgument);

  SnapshotDelta bad_arity;
  bad_arity.append_rows.push_back({{"only-one-value"}, 0.0});
  EXPECT_EQ(ApplyDelta(rows, bad_arity).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(ApplyDelta(nullptr, SnapshotDelta{}).status().code(),
            StatusCode::kInvalidArgument);
}

// --- table-delta oracle ---------------------------------------------------

/// One row of the oracle's replayed log: what a from-scratch load reads.
struct LoggedRow {
  std::vector<std::string> values;
  double measure = 0.0;
};

constexpr std::size_t kOracleMaxRows = 200;

/// Low-cardinality values (5 x 4 x 3), so every version enumerates at most
/// 120 patterns.
LoggedRow RandomRow(Rng& rng) {
  LoggedRow row;
  row.values = {"r" + std::to_string(rng.NextBounded(5)),
                "t" + std::to_string(rng.NextBounded(4)),
                "z" + std::to_string(rng.NextBounded(3))};
  row.measure = static_cast<double>(rng.NextInt(1, 9)) +
                0.25 * static_cast<double>(rng.NextBounded(4));
  return row;
}

Result<InstancePtr> BuildFromLog(const std::vector<LoggedRow>& log,
                                 const pattern::CostFunction& cost_fn) {
  TableBuilder builder({"region", "tier", "zone"}, "load");
  for (const LoggedRow& row : log) {
    std::vector<std::string_view> views(row.values.begin(), row.values.end());
    SCWSC_RETURN_NOT_OK(builder.AddRow(views, row.measure));
  }
  return api::InstanceSnapshot::FromTable(std::move(builder).Build(),
                                          cost_fn);
}

/// `solver`'s answers on the delta version and on its rebuild agree bit for
/// bit: status, picks, cost, coverage and candidates considered.
void ExpectSameAnswer(const InstancePtr& version, const InstancePtr& rebuilt,
                      const std::string& solver) {
  auto solve = [&](const InstancePtr& instance) {
    auto request = api::SolveRequest::Builder(instance)
                       .WithK(4)
                       .WithCoverage(0.6)
                       .Build();
    EXPECT_TRUE(request.ok()) << request.status().ToString();
    return api::SolverRegistry::Global().Solve(solver, *request, nullptr);
  };
  auto from_delta = solve(version);
  auto from_scratch = solve(rebuilt);
  ASSERT_EQ(from_delta.status().code(), from_scratch.status().code())
      << solver << ": " << from_delta.status().ToString() << " vs "
      << from_scratch.status().ToString();
  if (!from_delta.ok()) return;
  EXPECT_EQ(from_delta->labels, from_scratch->labels) << solver;
  EXPECT_EQ(from_delta->total_cost, from_scratch->total_cost) << solver;
  EXPECT_EQ(from_delta->covered, from_scratch->covered) << solver;
  EXPECT_EQ(from_delta->counters.sets_considered,
            from_scratch->counters.sets_considered)
      << solver;
}

TEST(DeltaOracleTest, RowDeltaChainsMatchScratchBuilds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const pattern::CostFunction cost_fn(
        seed % 2 == 0 ? pattern::CostKind::kMax : pattern::CostKind::kSum);
    std::vector<LoggedRow> log(static_cast<std::size_t>(rng.NextInt(1, 120)));
    for (LoggedRow& row : log) row = RandomRow(rng);
    auto root = BuildFromLog(log, cost_fn);
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    InstancePtr head = *std::move(root);

    const std::int64_t num_ops = rng.NextInt(1, 30);
    for (std::int64_t op = 0; op < num_ops; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const std::size_t n = log.size();
      std::vector<std::size_t> retract;
      std::vector<LoggedRow> appended;
      const std::uint64_t kind = rng.NextBounded(4);
      if (kind == 0) {
        // Retract-then-append of the same row: the row moves to the end.
        const std::size_t victim = rng.NextBounded(n);
        retract = {victim};
        appended = {log[victim]};
      } else {
        // 1: append only, 2: retract only, 3: both. Retraction ids are
        // drawn unsorted; at least one parent row survives a pure retract.
        if (kind != 1 && n > 1) {
          retract.resize(n);
          std::iota(retract.begin(), retract.end(), std::size_t{0});
          rng.Shuffle(retract);
          retract.resize(static_cast<std::size_t>(
              rng.NextInt(1, static_cast<std::int64_t>(std::min<std::size_t>(
                                 8, n - 1)))));
        }
        const std::size_t room = kOracleMaxRows - (n - retract.size());
        if ((kind != 2 || retract.empty()) && room > 0) {
          appended.resize(static_cast<std::size_t>(rng.NextInt(
              1, static_cast<std::int64_t>(std::min<std::size_t>(8, room)))));
          for (LoggedRow& row : appended) row = RandomRow(rng);
        }
      }

      SnapshotDelta delta;
      delta.retract_rows = retract;
      for (const LoggedRow& row : appended) {
        delta.append_rows.push_back({row.values, row.measure});
      }
      auto applied = ApplyDelta(head, delta);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      EXPECT_EQ(applied->stats.rows_retracted, retract.size());
      EXPECT_EQ(applied->stats.rows_appended, appended.size());

      // Replay: survivors in parent order, then the appended rows.
      std::vector<bool> dropped(n, false);
      for (std::size_t r : retract) dropped[r] = true;
      std::vector<LoggedRow> next;
      for (std::size_t r = 0; r < n; ++r) {
        if (!dropped[r]) next.push_back(log[r]);
      }
      next.insert(next.end(), appended.begin(), appended.end());
      log = std::move(next);
      head = applied->snapshot;

      auto rebuilt = BuildFromLog(log, cost_fn);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      ASSERT_EQ(head->content_hash(), (*rebuilt)->content_hash());
      const Table& version = head->table();
      const Table& scratch = (*rebuilt)->table();
      ASSERT_EQ(version.num_rows(), log.size());
      for (std::size_t a = 0; a < scratch.num_attributes(); ++a) {
        const Dictionary& got = version.dictionary(a);
        const Dictionary& want = scratch.dictionary(a);
        ASSERT_EQ(got.size(), want.size()) << "attribute " << a;
        for (ValueId v = 0; v < want.size(); ++v) {
          EXPECT_EQ(got.Name(v), want.Name(v)) << "attribute " << a;
        }
      }
      ExpectSameAnswer(head, *rebuilt, "cwsc");
      ExpectSameAnswer(head, *rebuilt, "opt-cwsc");
    }
  }
}

}  // namespace
}  // namespace scwsc
