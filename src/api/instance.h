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
// A snapshot has two pieces of lazy state, each built on the first solve
// that asks for it under a std::call_once of its own and then shared by
// every later solve:
//
//  - for patterned instances, the SetSystem view, which requires
//    enumerating every pattern (the optimized solvers exist to avoid it);
//  - the SolveIndex (core/solve_index.h) over that view: the greedy seed
//    heap and the packed rows of dense sets, which cwsc, greedy-wsc, cmc
//    and the certificate would otherwise rebuild per solve. Snapshot
//    factories and ApplyDelta never build it, so a version nobody solves
//    on a SetSystem never pays for one.
//
// Neither build observes a RunContext: a deadline or cancellation reaches
// the solve only after the build returns. Both are immutable once built,
// so every access through the snapshot after its call_once is a pure read
// and concurrent solves are race-free.

#ifndef SCWSC_API_INSTANCE_H_
#define SCWSC_API_INSTANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "src/common/result.h"
#include "src/core/set_system.h"
#include "src/core/solve_index.h"
#include "src/hierarchy/hierarchy.h"
#include "src/pattern/cost.h"
#include "src/pattern/enumerate.h"
#include "src/pattern/pattern_system.h"
#include "src/table/table.h"

namespace scwsc {

namespace obs {
class TraceSession;
}  // namespace obs

namespace api {

class InstanceSnapshot;

/// The one handle frontends pass around. Copying the pointer shares the
/// snapshot; the underlying data is never copied.
using InstancePtr = std::shared_ptr<const InstanceSnapshot>;

class InstanceSnapshot {
 public:
  /// Wraps an explicit weighted set system (the generic, non-patterned
  /// input); concurrent solves only read it.
  static Result<InstancePtr> FromSetSystem(SetSystem system);

  /// Wraps a patterned table instance. The snapshot owns the table; the
  /// generic SetSystem view (full pattern enumeration) is materialized
  /// lazily on first use and then shared. `hierarchy`, when present,
  /// additionally enables the hierarchical solvers.
  static Result<InstancePtr> FromTable(
      Table table, pattern::CostFunction cost_fn,
      std::optional<hierarchy::TableHierarchy> hierarchy = std::nullopt,
      pattern::EnumerateOptions enumerate_options = {});

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

  /// The SolveIndex over set_system(), built on the first call (after the
  /// view, if that is not materialized yet) and shared by every later one;
  /// the building call records a "solve_index" span into `trace` (nullptr
  /// = off). The pointer stays valid and stable for the snapshot's
  /// lifetime.
  Result<const SolveIndex*> solve_index(
      obs::TraceSession* trace = nullptr) const;

  /// The pattern metadata parallel to set_system()'s SetIds. Table
  /// instances only (NotSupported otherwise); same lazy materialization.
  Result<const pattern::PatternSystem*> pattern_system() const;

  /// True once set_system() has materialized (always true for
  /// FromSetSystem snapshots). Benches use this to time enumeration
  /// separately from solving.
  bool set_system_materialized() const;

  /// Whole-content hash over every byte a solver can read: schema,
  /// dictionaries, encoded columns, measures, cost function and hierarchy
  /// presence, or every set's elements, cost and label in id order.
  /// Computed once at construction; the serve layer keys results by it.
  std::uint64_t content_hash() const { return content_hash_; }

  /// How many deltas separate this snapshot from its from-scratch root:
  /// 0 for snapshots built by FromSetSystem/FromTable, parent + 1 for
  /// snapshots produced by ApplyDelta (api/delta.h).
  std::size_t delta_version() const { return delta_version_; }

 private:
  friend struct DeltaBuilderAccess;  // api/delta.cc: builds delta children

  /// The public factories at an explicit delta_version (0 for a root).
  static Result<InstancePtr> FromSetSystem(SetSystem system,
                                           std::size_t delta_version);
  static Result<InstancePtr> FromTable(
      Table table, pattern::CostFunction cost_fn,
      std::optional<hierarchy::TableHierarchy> hierarchy,
      pattern::EnumerateOptions enumerate_options, std::size_t delta_version);

  InstanceSnapshot() = default;

  void MaterializePatterns() const;

  /// Stamps content_hash_. Called once by each factory after the data is in
  /// place.
  void ComputeContentHash();

  // Exactly one of system_ (FromSetSystem) or table_ (FromTable) is set.
  std::optional<SetSystem> system_;
  std::optional<Table> table_;
  std::optional<pattern::CostFunction> cost_fn_;
  std::optional<hierarchy::TableHierarchy> hierarchy_;
  pattern::EnumerateOptions enumerate_options_;

  std::uint64_t content_hash_ = 0;
  std::size_t delta_version_ = 0;

  // Lazily materialized pattern view of a table instance. Guarded by
  // once_: after the call_once returns, lazy_ is immutable.
  mutable std::once_flag once_;
  mutable std::optional<Result<pattern::PatternSystem>> lazy_;
  mutable std::atomic<bool> materialized_{false};

  // Lazily built solve index over the set-system view. Guarded by
  // index_once_: after the call_once returns, index_ is immutable.
  mutable std::once_flag index_once_;
  mutable std::optional<SolveIndex> index_;
};

}  // namespace api
}  // namespace scwsc

#endif  // SCWSC_API_INSTANCE_H_
