#include "src/api/delta.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/table/builder.h"

namespace scwsc {
namespace api {

/// Friend of InstanceSnapshot: builds a delta child through the public
/// factories' code, at the parent's delta_version + 1.
struct DeltaBuilderAccess {
  static Result<InstancePtr> Child(const InstanceSnapshot& parent,
                                   SetSystem system) {
    return InstanceSnapshot::FromSetSystem(std::move(system),
                                           parent.delta_version() + 1);
  }

  static Result<InstancePtr> Child(const InstanceSnapshot& parent,
                                   Table table) {
    return InstanceSnapshot::FromTable(std::move(table), parent.cost_fn(),
                                       std::nullopt, parent.enumerate_options_,
                                       parent.delta_version() + 1);
  }
};

namespace {

/// Sorted, deduplicated copy of `ids`; InvalidArgument on duplicates or an
/// id outside [0, limit).
Result<std::vector<std::size_t>> CheckedSortedIds(
    const std::vector<std::size_t>& ids, std::size_t limit,
    const char* what) {
  std::vector<std::size_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= limit) {
      return Status::InvalidArgument(
          std::string("delta ") + what + " index " +
          std::to_string(sorted[i]) + " is out of range (parent has " +
          std::to_string(limit) + ")");
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(std::string("delta ") + what +
                                     " index " + std::to_string(sorted[i]) +
                                     " given more than once");
    }
  }
  return sorted;
}

Result<AppliedDelta> ApplyToTable(const InstancePtr& parent,
                                  const SnapshotDelta& delta) {
  if (!delta.add_sets.empty() || !delta.remove_sets.empty()) {
    return Status::InvalidArgument(
        "delta carries set operations, but the parent snapshot wraps a "
        "patterned table (use append_rows/retract_rows)");
  }
  if (parent->has_hierarchy()) {
    return Status::NotSupported(
        "deltas on snapshots with attribute hierarchies are not supported "
        "(hierarchies are bound to the parent's rows)");
  }
  const Table& table = parent->table();
  const std::size_t n = table.num_rows();
  SCWSC_ASSIGN_OR_RETURN(
      std::vector<std::size_t> retract,
      CheckedSortedIds(delta.retract_rows, n, "retract_rows"));
  for (const SnapshotDelta::RowAppend& row : delta.append_rows) {
    if (row.values.size() != table.num_attributes()) {
      return Status::InvalidArgument(
          "delta append_rows row has " + std::to_string(row.values.size()) +
          " values; the table has " + std::to_string(table.num_attributes()) +
          " attributes");
    }
  }
  const std::size_t new_n = n - retract.size() + delta.append_rows.size();
  if (new_n == 0) {
    return Status::InvalidArgument(
        "delta retracts every row and appends none; snapshots cannot be "
        "empty");
  }

  // Rebuild through TableBuilder in surviving-row order, exactly as a
  // from-scratch load of the mutated row sequence would: dictionary ids are
  // assigned first-seen, so the rebuilt columns (and hashes) match a
  // rebuild bit-for-bit.
  std::vector<std::string> attribute_names;
  attribute_names.reserve(table.num_attributes());
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    attribute_names.push_back(table.schema().attribute_name(a));
  }
  TableBuilder builder(attribute_names, table.schema().measure_name());
  std::size_t next_retract = 0;
  std::vector<std::string_view> views(table.num_attributes());
  for (RowId r = 0; r < n; ++r) {
    if (next_retract < retract.size() && retract[next_retract] == r) {
      ++next_retract;
      continue;
    }
    for (std::size_t a = 0; a < table.num_attributes(); ++a) {
      views[a] = table.value_name(r, a);
    }
    SCWSC_RETURN_NOT_OK(builder.AddRow(views, table.measure(r)));
  }
  for (const SnapshotDelta::RowAppend& row : delta.append_rows) {
    views.assign(row.values.begin(), row.values.end());
    SCWSC_RETURN_NOT_OK(builder.AddRow(views, row.measure));
  }

  SCWSC_ASSIGN_OR_RETURN(
      InstancePtr child,
      DeltaBuilderAccess::Child(*parent, std::move(builder).Build()));

  AppliedDelta applied;
  applied.snapshot = std::move(child);
  applied.stats.child_version = parent->delta_version() + 1;
  applied.stats.rows_appended = delta.append_rows.size();
  applied.stats.rows_retracted = retract.size();
  return applied;
}

Result<AppliedDelta> ApplyToSetSystem(const InstancePtr& parent,
                                      const SnapshotDelta& delta) {
  if (!delta.append_rows.empty() || !delta.retract_rows.empty()) {
    return Status::InvalidArgument(
        "delta carries row operations, but the parent snapshot wraps an "
        "explicit SetSystem (use add_sets/remove_sets)");
  }
  SCWSC_ASSIGN_OR_RETURN(const SetSystem* parent_system,
                         parent->set_system());
  const std::size_t n = parent_system->num_elements();
  const std::size_t num_parent_sets = parent_system->num_sets();
  std::vector<std::size_t> remove_ids(delta.remove_sets.begin(),
                                      delta.remove_sets.end());
  SCWSC_ASSIGN_OR_RETURN(
      std::vector<std::size_t> removed,
      CheckedSortedIds(remove_ids, num_parent_sets, "remove_sets"));

  SetSystem child_system(n);
  std::size_t next_removed = 0;
  for (SetId id = 0; id < num_parent_sets; ++id) {
    if (next_removed < removed.size() && removed[next_removed] == id) {
      ++next_removed;
      continue;
    }
    const WeightedSet& s = parent_system->set(id);
    SCWSC_RETURN_NOT_OK(
        child_system.AddSet(s.elements, s.cost, s.label).status());
  }
  for (const SnapshotDelta::SetAdd& add : delta.add_sets) {
    auto added = child_system.AddSet(add.elements, add.cost, add.label);
    if (!added.ok()) {
      return Status::InvalidArgument("delta add_sets entry rejected: " +
                                     std::string(added.status().message()));
    }
  }

  SCWSC_ASSIGN_OR_RETURN(
      InstancePtr child,
      DeltaBuilderAccess::Child(*parent, std::move(child_system)));

  AppliedDelta applied;
  applied.snapshot = std::move(child);
  applied.stats.child_version = parent->delta_version() + 1;
  applied.stats.sets_added = delta.add_sets.size();
  applied.stats.sets_removed = removed.size();
  return applied;
}

}  // namespace

Result<AppliedDelta> ApplyDelta(const InstancePtr& parent,
                                const SnapshotDelta& delta) {
  if (parent == nullptr) {
    return Status::InvalidArgument("ApplyDelta: null parent snapshot");
  }
  return parent->has_table() ? ApplyToTable(parent, delta)
                             : ApplyToSetSystem(parent, delta);
}

}  // namespace api
}  // namespace scwsc
