#include "src/serve/cache.h"

#include <cstring>
#include <tuple>
#include <utility>

#include "src/common/fault.h"
#include "src/common/hash.h"

namespace scwsc {
namespace serve {

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
