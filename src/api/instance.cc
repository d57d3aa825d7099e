#include "src/api/instance.h"

#include <utility>

#include "src/common/hash.h"

namespace scwsc {
namespace api {

Result<InstancePtr> InstanceSnapshot::FromSetSystem(SetSystem system) {
  return FromSetSystem(std::move(system), 0);
}

Result<InstancePtr> InstanceSnapshot::FromTable(
    Table table, pattern::CostFunction cost_fn,
    std::optional<hierarchy::TableHierarchy> hierarchy,
    pattern::EnumerateOptions enumerate_options) {
  return FromTable(std::move(table), std::move(cost_fn), std::move(hierarchy),
                   enumerate_options, 0);
}

Result<InstancePtr> InstanceSnapshot::FromSetSystem(SetSystem system,
                                                    std::size_t delta_version) {
  if (system.num_elements() == 0) {
    return Status::InvalidArgument("instance snapshot: empty universe");
  }
  auto snapshot = std::shared_ptr<InstanceSnapshot>(new InstanceSnapshot());
  snapshot->system_.emplace(std::move(system));
  snapshot->delta_version_ = delta_version;
  snapshot->ComputeContentHash();
  return InstancePtr(std::move(snapshot));
}

Result<InstancePtr> InstanceSnapshot::FromTable(
    Table table, pattern::CostFunction cost_fn,
    std::optional<hierarchy::TableHierarchy> hierarchy,
    pattern::EnumerateOptions enumerate_options, std::size_t delta_version) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("instance snapshot: empty table");
  }
  if (!table.has_measure()) {
    return Status::InvalidArgument(
        "instance snapshot: table has no measure column to weight patterns");
  }
  auto snapshot = std::shared_ptr<InstanceSnapshot>(new InstanceSnapshot());
  snapshot->table_.emplace(std::move(table));
  snapshot->cost_fn_.emplace(std::move(cost_fn));
  snapshot->hierarchy_ = std::move(hierarchy);
  snapshot->enumerate_options_ = enumerate_options;
  snapshot->delta_version_ = delta_version;
  snapshot->ComputeContentHash();
  return InstancePtr(std::move(snapshot));
}

void InstanceSnapshot::ComputeContentHash() {
  // One pass: a domain tag, then every field in a fixed order with each
  // variable-length field length-prefixed, so no two distinct instances
  // share an encoding. Snapshots over identical data hash identically, so a
  // restarted client reconnects to the same serve-cache entries.
  std::uint64_t h = kFnv64Offset;
  if (table_.has_value()) {
    HashU64(1, h);  // domain-separate the two snapshot shapes
    const Table& table = *table_;
    HashU64(table.num_rows(), h);
    HashU64(table.num_attributes(), h);
    for (std::size_t attr = 0; attr < table.num_attributes(); ++attr) {
      HashString(table.schema().attribute_name(attr), h);
      const Dictionary& dict = table.dictionary(attr);
      HashU64(dict.size(), h);
      for (ValueId v = 0; v < dict.size(); ++v) HashString(dict.Name(v), h);
      const std::vector<ValueId>& column = table.column(attr);
      HashBytes(column.data(), column.size() * sizeof(ValueId), h);
    }
    const std::vector<double>& measures = table.measures();
    HashBytes(measures.data(), measures.size() * sizeof(double), h);
    HashU64(static_cast<std::uint64_t>(cost_fn_->kind()), h);
    HashDouble(cost_fn_->p(), h);
    HashU64(hierarchy_.has_value() ? 1 : 0, h);
  } else {
    HashU64(2, h);
    const SetSystem& system = *system_;
    HashU64(system.num_elements(), h);
    HashU64(system.num_sets(), h);
    for (SetId id = 0; id < system.num_sets(); ++id) {
      const WeightedSet& s = system.set(id);
      HashU64(s.elements.size(), h);
      HashDouble(s.cost, h);
      HashString(s.label, h);
      HashBytes(s.elements.data(), s.elements.size() * sizeof(ElementId), h);
    }
  }
  content_hash_ = h;
}

std::size_t InstanceSnapshot::num_elements() const {
  return table_.has_value() ? table_->num_rows() : system_->num_elements();
}

void InstanceSnapshot::MaterializePatterns() const {
  std::call_once(once_, [this] {
    lazy_.emplace(
        pattern::PatternSystem::Build(*table_, *cost_fn_, enumerate_options_));
    materialized_.store(true, std::memory_order_release);
  });
}

Result<const SetSystem*> InstanceSnapshot::set_system() const {
  if (system_.has_value()) return &*system_;
  MaterializePatterns();
  if (!lazy_->ok()) return lazy_->status();
  return &lazy_->value().set_system();
}

Result<const pattern::PatternSystem*> InstanceSnapshot::pattern_system()
    const {
  if (!table_.has_value()) {
    return Status::NotSupported(
        "instance snapshot: pattern metadata requires a patterned table "
        "instance (this snapshot wraps an explicit SetSystem)");
  }
  MaterializePatterns();
  if (!lazy_->ok()) return lazy_->status();
  return &lazy_->value();
}

bool InstanceSnapshot::set_system_materialized() const {
  if (system_.has_value()) return true;
  return materialized_.load(std::memory_order_acquire);
}

}  // namespace api
}  // namespace scwsc
