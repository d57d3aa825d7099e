#include "src/serve/cache.h"

#include <cstring>
#include <tuple>
#include <utility>

#include "src/common/fault.h"
#include "src/common/hash.h"

namespace scwsc {
namespace serve {

std::uint64_t ContentHash(const api::InstanceSnapshot& instance) {
  // Snapshots stamp their content hash at construction; the serve layer
  // just reads it.
  return instance.content_hash();
}

std::size_t ApproxSnapshotBytes(const api::InstanceSnapshot& instance) {
  std::size_t bytes = sizeof(api::InstanceSnapshot);
  if (instance.has_table()) {
    const Table& table = instance.table();
    bytes += table.num_rows() * table.num_attributes() * sizeof(ValueId);
    if (table.has_measure()) bytes += table.num_rows() * sizeof(double);
    return bytes;
  }
  auto system = instance.set_system();
  if (!system.ok()) return bytes;
  for (SetId id = 0; id < (*system)->num_sets(); ++id) {
    bytes += sizeof(WeightedSet) +
             (*system)->set(id).elements.size() * sizeof(ElementId);
  }
  return bytes;
}

// --- SnapshotCache ---------------------------------------------------------

SnapshotCache::SnapshotCache(std::size_t capacity_bytes,
                             obs::MetricRegistry* metrics)
    : capacity_bytes_(capacity_bytes), metrics_(metrics) {}

api::InstancePtr SnapshotCache::Lookup(std::uint64_t hash) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(hash);
  if (it == index_.end()) {
    if (metrics_ != nullptr) {
      metrics_->counter("serve.snapshot_cache.misses").Increment();
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  if (metrics_ != nullptr) {
    metrics_->counter("serve.snapshot_cache.hits").Increment();
  }
  return it->second->instance;
}

Status SnapshotCache::Insert(std::uint64_t hash, api::InstancePtr instance) {
  if (instance == nullptr) {
    return Status::InvalidArgument("snapshot cache: null instance");
  }
  const std::size_t bytes = ApproxSnapshotBytes(*instance);
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_bytes_ > 0 && bytes > capacity_bytes_) {
    // Admitting this entry could only end with every other resident entry
    // evicted and the cache still over budget — reject it instead; the
    // caller's InstancePtr keeps working uncached.
    if (metrics_ != nullptr) {
      metrics_->counter("serve.snapshot_cache.oversized").Increment();
    }
    return Status::ResourceExhausted(
        "snapshot cache: entry of " + std::to_string(bytes) +
        " bytes exceeds the whole cache budget of " +
        std::to_string(capacity_bytes_) + " bytes; not cached");
  }
  auto it = index_.find(hash);
  if (it != index_.end()) {
    resident_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{hash, std::move(instance), bytes});
  index_[hash] = lru_.begin();
  resident_bytes_ += bytes;
  EvictOverBudgetLocked();
  return Status::OK();
}

void SnapshotCache::EvictOverBudgetLocked() {
  // Never evict the entry just inserted, even when it alone exceeds the
  // budget: a cache that cannot hold its newest snapshot degrades to a
  // rebuild-per-job serve loop.
  while (resident_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    index_.erase(victim.hash);
    lru_.pop_back();
    if (metrics_ != nullptr) {
      metrics_->counter("serve.snapshot_cache.evictions").Increment();
    }
  }
}

std::size_t SnapshotCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t SnapshotCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

// --- ResultCache -----------------------------------------------------------

bool ResultKey::operator<(const ResultKey& other) const {
  return std::tie(snapshot_hash, solver, k, coverage_fraction, options,
                  certify) <
         std::tie(other.snapshot_hash, other.solver, other.k,
                  other.coverage_fraction, other.options, other.certify);
}

ResultKey MakeResultKey(std::uint64_t snapshot_hash, const std::string& solver,
                        const api::SolveRequest& request) {
  ResultKey key;
  key.snapshot_hash = snapshot_hash;
  key.solver = solver;
  key.k = request.k;
  key.coverage_fraction = request.coverage_fraction;
  key.options = request.options.CanonicalString();
  key.certify = request.certify;
  return key;
}

std::uint64_t ResultChecksum(const api::SolveResult& result) {
  std::uint64_t h = kFnv64Offset;
  HashU64(result.solution.sets.size(), h);
  HashBytes(result.solution.sets.data(),
            result.solution.sets.size() * sizeof(SetId), h);
  HashDouble(result.solution.total_cost, h);
  HashU64(result.solution.covered, h);
  HashU64(result.labels.size(), h);
  for (const std::string& label : result.labels) HashString(label, h);
  HashU64(result.patterns.size(), h);
  HashDouble(result.total_cost, h);
  HashU64(result.covered, h);
  HashU64(result.audit.num_sets, h);
  HashDouble(result.audit.total_cost, h);
  HashU64(result.audit.covered, h);
  HashU64(result.audit.bookkeeping_consistent ? 1 : 0, h);
  HashU64(result.contract.max_sets, h);
  HashU64(result.contract.coverage_target, h);
  HashDouble(result.seconds, h);
  HashU64(result.certificate.has_value() ? 1 : 0, h);
  if (result.certificate.has_value()) {
    HashDouble(result.certificate->lower_bound, h);
    HashDouble(result.certificate->certified_ratio, h);
  }
  return h;
}

ResultCache::ResultCache(std::size_t capacity_entries,
                         obs::MetricRegistry* metrics)
    : capacity_entries_(capacity_entries), metrics_(metrics) {}

std::optional<api::SolveResult> ResultCache::Lookup(const ResultKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (metrics_ != nullptr) {
      metrics_->counter("serve.result_cache.misses").Increment();
    }
    return std::nullopt;
  }
  if (ResultChecksum(it->second->result) != it->second->checksum) {
    // Quarantine: never serve a result whose bytes changed since insert.
    lru_.erase(it->second);
    index_.erase(it);
    if (metrics_ != nullptr) {
      metrics_->counter("serve.result_cache.quarantined").Increment();
      metrics_->counter("serve.result_cache.misses").Increment();
    }
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (metrics_ != nullptr) {
    metrics_->counter("serve.result_cache.hits").Increment();
  }
  return it->second->result;
}

void ResultCache::Insert(const ResultKey& key, api::SolveResult result) {
  // Checksum the clean result first; an injected corruption below then
  // guarantees a mismatch the next Lookup quarantines.
  const std::uint64_t checksum = ResultChecksum(result);
  if (FaultFires(FaultPoint::kResultCacheCorrupt)) {
    std::uint64_t bits;
    std::memcpy(&bits, &result.total_cost, sizeof(bits));
    bits ^= 0x0008000000000001ULL;  // flip mantissa bits: silent data damage
    std::memcpy(&result.total_cost, &bits, sizeof(bits));
    result.covered += 1;
    if (metrics_ != nullptr) {
      metrics_->counter("serve.result_cache.corrupted").Increment();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{key, std::move(result), checksum});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_entries_ && lru_.size() > 1) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    if (metrics_ != nullptr) {
      metrics_->counter("serve.result_cache.evictions").Increment();
    }
  }
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace serve
}  // namespace scwsc
