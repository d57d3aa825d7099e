#include "src/api/instance.h"

#include <algorithm>
#include <utility>

#include "src/common/fault.h"
#include "src/common/hash.h"

namespace scwsc {
namespace api {
namespace {

/// Chaos hook shared by both builders: a fired kSnapshotAlloc models the
/// allocation of the snapshot's tables failing under memory pressure.
Status InjectedAllocFailure() {
  return Status::ResourceExhausted(
      "injected fault: snapshot allocation failed (FaultPoint "
      "snapshot_alloc)");
}

/// Hash of rows [begin, end) of a table: each attribute's encoded column
/// slice plus the measure slice. Schema and dictionaries are global
/// metadata, hashed once outside the shard loop.
std::uint64_t HashTableShard(const Table& table, std::size_t begin,
                             std::size_t end) {
  std::uint64_t h = kFnv64Offset;
  HashU64(begin, h);
  HashU64(end, h);
  for (std::size_t attr = 0; attr < table.num_attributes(); ++attr) {
    const std::vector<ValueId>& column = table.column(attr);
    HashBytes(column.data() + begin, (end - begin) * sizeof(ValueId), h);
  }
  if (table.has_measure()) {
    const std::vector<double>& m = table.measures();
    HashBytes(m.data() + begin, (end - begin) * sizeof(double), h);
  }
  return h;
}

/// Hash of elements [begin, end) of a set system: every set's sorted
/// element slice that falls in the range, tagged with its SetId. Costs,
/// labels and sizes are global metadata. Sets with no elements in the range
/// contribute nothing, so a delta that only adds sets confined to one shard
/// changes exactly that shard's hash — the localization property the serve
/// cache's cross-version shard sharing relies on (api/delta.h).
std::uint64_t HashSetSystemShard(const SetSystem& system, std::size_t begin,
                                 std::size_t end) {
  std::uint64_t h = kFnv64Offset;
  HashU64(begin, h);
  HashU64(end, h);
  for (SetId id = 0; id < system.num_sets(); ++id) {
    const auto& elems = system.set(id).elements;
    const auto lo = std::lower_bound(elems.begin(), elems.end(),
                                     static_cast<ElementId>(begin));
    const auto hi = std::lower_bound(lo, elems.end(),
                                     static_cast<ElementId>(end));
    if (lo == hi) continue;
    // The id disambiguates *which* set covers the slice: without it two
    // systems differing only in set membership of identical slices would
    // collide shard-wise.
    HashU64(id, h);
    HashU64(static_cast<std::uint64_t>(hi - lo), h);
    HashBytes(elems.data() + (lo - elems.begin()),
              static_cast<std::size_t>(hi - lo) * sizeof(ElementId), h);
  }
  return h;
}

}  // namespace

Result<InstancePtr> InstanceSnapshot::FromSetSystem(SetSystem system,
                                                    ShardingOptions sharding) {
  if (system.num_elements() == 0) {
    return Status::InvalidArgument("instance snapshot: empty universe");
  }
  if (FaultFires(FaultPoint::kSnapshotAlloc)) return InjectedAllocFailure();
  auto snapshot = std::shared_ptr<InstanceSnapshot>(new InstanceSnapshot());
  snapshot->system_.emplace(std::move(system));
  snapshot->ComputeShardPlan(sharding);
  return InstancePtr(std::move(snapshot));
}

Result<InstancePtr> InstanceSnapshot::FromTable(
    Table table, pattern::CostFunction cost_fn,
    std::optional<hierarchy::TableHierarchy> hierarchy,
    pattern::EnumerateOptions enumerate_options, ShardingOptions sharding) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("instance snapshot: empty table");
  }
  if (!table.has_measure()) {
    return Status::InvalidArgument(
        "instance snapshot: table has no measure column to weight patterns");
  }
  if (FaultFires(FaultPoint::kSnapshotAlloc)) return InjectedAllocFailure();
  auto snapshot = std::shared_ptr<InstanceSnapshot>(new InstanceSnapshot());
  snapshot->table_.emplace(std::move(table));
  snapshot->cost_fn_.emplace(std::move(cost_fn));
  snapshot->hierarchy_ = std::move(hierarchy);
  snapshot->enumerate_options_ = enumerate_options;
  snapshot->ComputeShardPlan(sharding);
  return InstancePtr(std::move(snapshot));
}

void InstanceSnapshot::ComputeShardPlan(ShardingOptions sharding,
                                        const ShardHashHint* hint) {
  sharding_ = sharding;
  const std::size_t n = num_elements();
  const std::size_t effective =
      EffectiveShards(n, sharding.num_shards, sharding.min_shard_elements);
  shard_bounds_ = ShardBounds(n, effective);
  const std::size_t S = shard_bounds_.size() - 1;
  shard_hashes_.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    // Chain from the delta parent when this shard's bounds match and the
    // delta left its data untouched: the slice bytes are identical, so the
    // copied hash equals what rehashing would produce.
    if (hint != nullptr && s + 1 < hint->bounds.size() &&
        s < hint->dirty.size() && !hint->dirty[s] &&
        hint->bounds[s] == shard_bounds_[s] &&
        hint->bounds[s + 1] == shard_bounds_[s + 1]) {
      shard_hashes_.push_back(hint->hashes[s]);
      ++hint->chained;
      continue;
    }
    shard_hashes_.push_back(
        table_.has_value()
            ? HashTableShard(*table_, shard_bounds_[s], shard_bounds_[s + 1])
            : HashSetSystemShard(*system_, shard_bounds_[s],
                                 shard_bounds_[s + 1]));
  }

  // Whole-content hash: a domain tag and the global metadata the shard
  // hashes leave out, then the shard plan chained with every shard hash.
  // Snapshots over identical data with identical plans hash identically,
  // so a restarted client reconnects to the same serve-cache entries.
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
    }
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
    }
  }
  HashU64(S, h);
  for (const std::uint64_t sh : shard_hashes_) HashU64(sh, h);
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
  // Chaos hook at the *access* seam, not inside MaterializePatterns: a
  // call_once failure would poison the snapshot forever, whereas a
  // transient materialize fault must be retryable.
  if (FaultFires(FaultPoint::kSnapshotMaterialize)) {
    return Status::Internal(
        "injected fault: snapshot materialization failed (FaultPoint "
        "snapshot_materialize)");
  }
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
