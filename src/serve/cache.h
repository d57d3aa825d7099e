// The serve layer's result cache, and the key it is addressed by.
//
// ResultCache: (snapshot content hash, canonical solver name, k, coverage,
// canonicalized options, certify) -> SolveResult. Memoizes deterministic
// solves: every registered algorithm is deterministic given its inputs (the
// LP rounding trials are seeded), so the only jobs the scheduler refuses to
// memoize are deadline-bearing ones, whose partial results depend on
// timing. LRU by entry count. The snapshot hash is the one each snapshot
// stamps at construction (InstanceSnapshot::content_hash), so a snapshot
// allocated where a freed one lived never inherits its results.
//
// Integrity: every entry stores a content checksum computed at insert time
// and re-verified on every hit. An entry whose bytes no longer match
// (injected corruption, a future serialization bug) is quarantined —
// erased and counted under serve.result_cache.quarantined — and reported as
// a miss, so a corrupt result is never served.
//
// The cache is thread-safe and counts into an obs::MetricRegistry when one
// is attached ("serve.result_cache.hits", "serve.result_cache.misses", ...).

#ifndef SCWSC_SERVE_CACHE_H_
#define SCWSC_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/api/solver.h"
#include "src/obs/metrics.h"

namespace scwsc {
namespace serve {

/// The identity of one deterministic solve. Built via MakeResultKey so the
/// options string is always the canonicalized spelling.
struct ResultKey {
  std::uint64_t snapshot_hash = 0;
  std::string solver;   // canonical registry name
  std::size_t k = 0;
  double coverage_fraction = 0.0;
  std::string options;  // OptionsBag::CanonicalString()
  bool certify = false;  // SolveRequest::certify: certified answers differ

  bool operator<(const ResultKey& other) const;
};

ResultKey MakeResultKey(std::uint64_t snapshot_hash,
                        const std::string& solver,
                        const api::SolveRequest& request);

/// Content checksum of the fields a cached SolveResult serves back
/// (selection, labels, cost/coverage bookkeeping, audit, certificate).
/// Computed at insert and re-verified on every hit so a corrupted entry is
/// detected before anyone consumes it.
std::uint64_t ResultChecksum(const api::SolveResult& result);

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity_entries,
                       obs::MetricRegistry* metrics = nullptr);

  /// The memoized result, refreshing recency; nullopt on miss. Counts
  /// serve.result_cache.{hits,misses}. A hit whose stored bytes fail the
  /// checksum is quarantined: the entry is erased, counted under
  /// serve.result_cache.quarantined, and reported as a miss.
  std::optional<api::SolveResult> Lookup(const ResultKey& key);

  /// Memoizes `result` under `key` with its content checksum. An installed
  /// FaultPlan arming result_cache_corrupt flips bits in the stored copy
  /// (counted under serve.result_cache.corrupted) so the quarantine path
  /// is exercisable.
  void Insert(const ResultKey& key, api::SolveResult result);

  std::size_t size() const;

 private:
  struct Entry {
    ResultKey key;
    api::SolveResult result;
    std::uint64_t checksum = 0;
  };

  const std::size_t capacity_entries_;
  obs::MetricRegistry* const metrics_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::map<ResultKey, std::list<Entry>::iterator> index_;
};

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_CACHE_H_
