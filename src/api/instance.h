// InstanceSnapshot: one immutable, shareable handle on an SCWSC instance.
//
// Every solver frontend (CLI, bench harness, tests, a future RPC server)
// used to rebuild the same substrate ad hoc — a SetSystem here, a
// PatternSystem there, a TableHierarchy for the hierarchical solvers — once
// per call site and often once per figure point. An InstanceSnapshot is
// built exactly once and then shared by `std::shared_ptr` across concurrent
// solves: it owns the Table (for patterned instances), the cost function,
// the optional attribute hierarchies, and the generic SetSystem view.
//
// For patterned instances the SetSystem view requires enumerating every
// pattern, which the optimized solvers exist to avoid; it is therefore
// materialized lazily, on the first solver that asks for it, under a
// std::call_once, and cached for every later solve. A SetSystem has no lazy
// state of its own, so once that block returns every access through the
// snapshot is a pure read and concurrent solves are race-free.

#ifndef SCWSC_API_INSTANCE_H_
#define SCWSC_API_INSTANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/core/set_system.h"
#include "src/core/shard.h"
#include "src/hierarchy/hierarchy.h"
#include "src/pattern/cost.h"
#include "src/pattern/enumerate.h"
#include "src/pattern/pattern_system.h"
#include "src/table/table.h"

namespace scwsc {
namespace api {

class InstanceSnapshot;

/// The one handle frontends pass around. Copying the pointer shares the
/// snapshot; the underlying data is never copied.
using InstancePtr = std::shared_ptr<const InstanceSnapshot>;

/// Parent-chaining information for an incremental snapshot build (see
/// api/delta.h). When a delta leaves a shard's data untouched, the child
/// snapshot copies that shard's hash from the parent instead of rehashing
/// the slice — provably equal to recomputation, so the child's content hash
/// is bit-identical to a from-scratch build over the same data. `dirty[s]`
/// marks parent shards the delta touched; chaining only applies while the
/// child's shard bounds match the parent's (same universe size and
/// ShardingOptions), which ApplyDelta verifies per shard.
struct ShardHashHint {
  std::vector<std::size_t> bounds;    // parent shard bounds
  std::vector<std::uint64_t> hashes;  // parent per-shard hashes
  std::vector<bool> dirty;            // parent shards the delta touched
  std::size_t parent_version = 0;     // parent's delta_version()
  /// Out-parameter: shards whose hash was reused from the parent.
  mutable std::size_t chained = 0;
};

class InstanceSnapshot {
 public:
  /// Wraps an explicit weighted set system (the generic, non-patterned
  /// input); concurrent solves only read it. `sharding` partitions the
  /// element universe (ShardBounds); the effective plan is stamped into the
  /// snapshot together with per-shard content hashes, and solvers run their
  /// benefit engines per-shard. The default (1 shard) is the flat path.
  static Result<InstancePtr> FromSetSystem(SetSystem system,
                                           ShardingOptions sharding = {});

  /// Wraps a patterned table instance. The snapshot owns the table; the
  /// generic SetSystem view (full pattern enumeration) is materialized
  /// lazily on first use and then shared. `hierarchy`, when present,
  /// additionally enables the hierarchical solvers. `sharding` partitions
  /// the row universe, exactly as in FromSetSystem.
  static Result<InstancePtr> FromTable(
      Table table, pattern::CostFunction cost_fn,
      std::optional<hierarchy::TableHierarchy> hierarchy = std::nullopt,
      pattern::EnumerateOptions enumerate_options = {},
      ShardingOptions sharding = {});

  // Not copyable or movable: a snapshot's address is its identity (solvers
  // and caches hold pointers into it); sharing goes through InstancePtr.
  InstanceSnapshot(const InstanceSnapshot&) = delete;
  InstanceSnapshot& operator=(const InstanceSnapshot&) = delete;

  bool has_table() const { return table_.has_value(); }
  bool has_hierarchy() const { return hierarchy_.has_value(); }

  /// The patterned table. Requires has_table().
  const Table& table() const { return *table_; }
  /// The pattern cost function. Requires has_table().
  const pattern::CostFunction& cost_fn() const { return *cost_fn_; }
  /// The attribute hierarchies. Requires has_hierarchy().
  const hierarchy::TableHierarchy& hierarchy() const { return *hierarchy_; }

  /// Universe size: rows for table instances, elements otherwise.
  std::size_t num_elements() const;

  /// The generic SetSystem view every set-based solver consumes. For table
  /// instances this enumerates all patterns on first call (thread-safe,
  /// cached); pattern/hierarchy solvers never trigger it. The pointer stays
  /// valid and stable for the snapshot's lifetime.
  Result<const SetSystem*> set_system() const;

  /// The pattern metadata parallel to set_system()'s SetIds. Table
  /// instances only (NotSupported otherwise); same lazy materialization.
  Result<const pattern::PatternSystem*> pattern_system() const;

  /// True once set_system() has materialized (always true for
  /// FromSetSystem snapshots). Benches use this to time enumeration
  /// separately from solving.
  bool set_system_materialized() const;

  // --- sharding -------------------------------------------------------------

  /// The sharding options the snapshot was built with (as requested).
  const ShardingOptions& sharding() const { return sharding_; }

  /// Effective shard count after clamping (1 = flat). Solver adapters copy
  /// this into EngineOptions::num_shards so every engine over this snapshot
  /// uses the snapshot's plan.
  std::size_t num_shards() const { return shard_bounds_.size() - 1; }

  /// Word-aligned element bounds of the shard plan (ShardBounds), size
  /// num_shards() + 1.
  const std::vector<std::size_t>& shard_bounds() const {
    return shard_bounds_;
  }

  /// FNV-1a hash of each shard's slice of the underlying data (table rows
  /// or per-set element slices), size num_shards(). Two snapshots sharing a
  /// shard's data produce equal hashes for it, which is what lets the serve
  /// cache detect unchanged shards across snapshot versions.
  const std::vector<std::uint64_t>& shard_hashes() const {
    return shard_hashes_;
  }

  /// Whole-content hash: global metadata (schema, dictionaries, cost
  /// function, hierarchy presence / set costs and labels) chained with the
  /// shard plan and every per-shard hash. Computed once at construction;
  /// serve::ContentHash returns this.
  std::uint64_t content_hash() const { return content_hash_; }

  /// How many deltas separate this snapshot from its from-scratch root:
  /// 0 for snapshots built by FromSetSystem/FromTable, parent + 1 for
  /// snapshots produced by ApplyDelta (api/delta.h).
  std::size_t delta_version() const { return delta_version_; }

 private:
  friend struct DeltaBuilderAccess;  // api/delta.cc: chained child builds

  InstanceSnapshot() = default;

  void MaterializePatterns() const;

  /// Stamps the effective shard plan, the per-shard data hashes and the
  /// whole-content hash. Called once by each builder after the data is in
  /// place. `hint` (nullable) chains untouched shard hashes from a delta
  /// parent instead of rehashing them.
  void ComputeShardPlan(ShardingOptions sharding,
                        const ShardHashHint* hint = nullptr);

  // Exactly one of system_ (FromSetSystem) or table_ (FromTable) is set.
  std::optional<SetSystem> system_;
  std::optional<Table> table_;
  std::optional<pattern::CostFunction> cost_fn_;
  std::optional<hierarchy::TableHierarchy> hierarchy_;
  pattern::EnumerateOptions enumerate_options_;

  // The effective shard plan and content hashes, immutable after build.
  ShardingOptions sharding_;
  std::vector<std::size_t> shard_bounds_;
  std::vector<std::uint64_t> shard_hashes_;
  std::uint64_t content_hash_ = 0;
  std::size_t delta_version_ = 0;  // set by DeltaBuilderAccess only

  // Lazily materialized pattern view of a table instance. Guarded by
  // once_: after the call_once returns, lazy_ is immutable.
  mutable std::once_flag once_;
  mutable std::optional<Result<pattern::PatternSystem>> lazy_;
  mutable std::atomic<bool> materialized_{false};
};

}  // namespace api
}  // namespace scwsc

#endif  // SCWSC_API_INSTANCE_H_
