// SnapshotDelta: incremental mutation of an immutable InstanceSnapshot.
//
// Snapshots never change in place — live serving instead derives a *new*
// version by applying a delta (append/retract rows for table snapshots,
// add/remove sets for set-system snapshots) to a parent. The child is built
// over the mutated data through the same factory code a from-scratch
// FromTable/FromSetSystem runs, so its content hash is bit-identical to a
// rebuild — the property bench/serve_soak gates at every version — and the
// serve layer's ResultCache invalidates precisely: only keys whose snapshot
// hash changed. A solve against the child runs from scratch.

#ifndef SCWSC_API_DELTA_H_
#define SCWSC_API_DELTA_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/api/instance.h"
#include "src/common/result.h"
#include "src/core/set_system.h"

namespace scwsc {
namespace api {

/// One batch of mutations against a parent snapshot. Row operations apply
/// to table snapshots, set operations to set-system snapshots; mixing the
/// two families (or using the wrong family for the snapshot kind) is an
/// InvalidArgument from ApplyDelta.
struct SnapshotDelta {
  struct RowAppend {
    std::vector<std::string> values;  // one per pattern attribute, in order
    double measure = 0.0;
  };
  struct SetAdd {
    std::vector<ElementId> elements;  // deduplicated/sorted by AddSet
    double cost = 0.0;
    std::string label;
  };

  /// Rows appended after the surviving parent rows (table snapshots).
  std::vector<RowAppend> append_rows;
  /// Parent row indices to drop; order preserved among survivors.
  std::vector<std::size_t> retract_rows;

  /// Sets appended after the surviving parent sets (set-system snapshots).
  std::vector<SetAdd> add_sets;
  /// Parent SetIds to drop; survivors are renumbered densely in order.
  std::vector<SetId> remove_sets;

  bool empty() const {
    return append_rows.empty() && retract_rows.empty() && add_sets.empty() &&
           remove_sets.empty();
  }
};

/// What one application did, for telemetry and the delta ack.
struct DeltaStats {
  std::size_t child_version = 0;  // parent delta_version() + 1
  std::size_t rows_appended = 0;
  std::size_t rows_retracted = 0;
  std::size_t sets_added = 0;
  std::size_t sets_removed = 0;
};

struct AppliedDelta {
  InstancePtr snapshot;  // the child version
  DeltaStats stats;
};

/// Applies `delta` to `parent`, returning the child snapshot. The child
/// shares nothing mutable with the parent (both stay independently usable
/// and cacheable); an empty delta yields a child with the parent's content
/// hash. Table snapshots carrying attribute hierarchies are NotSupported
/// (hierarchies are bound to the parent's rows).
Result<AppliedDelta> ApplyDelta(const InstancePtr& parent,
                                const SnapshotDelta& delta);

}  // namespace api
}  // namespace scwsc

#endif  // SCWSC_API_DELTA_H_
