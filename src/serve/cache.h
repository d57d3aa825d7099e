// The serve layer's two caches, plus the content hashing that keys them.
//
// SnapshotCache: content-hash of the underlying table/set-system (plus cost
// function and hierarchy presence) -> shared InstancePtr. Repeated batch
// jobs over the same data reuse one snapshot — and therefore one lazy
// pattern enumeration — instead of rebuilding it per job. LRU with a
// byte-accounted capacity (a snapshot's dominant cost is its encoded
// columns / element lists, which ApproxSnapshotBytes estimates).
//
// ResultCache: (snapshot hash, canonical solver name, k, coverage,
// canonicalized options) -> SolveResult. Memoizes deterministic solves:
// every registered algorithm is deterministic given its inputs (the LP
// rounding trials are seeded), so the only jobs the scheduler refuses to
// memoize are deadline-bearing ones, whose partial results depend on
// timing. LRU by entry count.
//
// Integrity: every ResultCache entry stores a content checksum computed at
// insert time and re-verified on every hit. An entry whose bytes no longer
// match (injected corruption, a future serialization bug) is quarantined —
// erased and counted under serve.result_cache.quarantined — and reported as
// a miss, so a corrupt result is never served.
//
// Sizing: a snapshot larger than the SnapshotCache's entire byte budget is
// rejected with a typed ResourceExhausted (and counted under
// serve.snapshot_cache.oversized) instead of evicting every other resident
// entry on the way to an over-budget cache of one.
//
// Both caches are thread-safe and count hits/misses into an
// obs::MetricRegistry when one is attached ("serve.snapshot_cache.hits",
// "serve.result_cache.misses", ...).

#ifndef SCWSC_SERVE_CACHE_H_
#define SCWSC_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/api/instance.h"
#include "src/api/solver.h"
#include "src/obs/metrics.h"

namespace scwsc {
namespace serve {

/// FNV-1a content hash of an instance: table columns + measure + cost
/// function (+ hierarchy presence), or the set system's elements, costs and
/// labels. Two snapshots built from identical data hash identically, so a
/// restarted client reconnects to the same cache entries.
/// The hash is computed once at snapshot construction (src/api/instance.cc);
/// this returns the stored value.
std::uint64_t ContentHash(const api::InstanceSnapshot& instance);

/// Rough resident size of a snapshot: encoded columns + measure for table
/// instances, element lists for set systems. Used for the snapshot cache's
/// byte accounting — an estimate, not an audit.
std::size_t ApproxSnapshotBytes(const api::InstanceSnapshot& instance);

class SnapshotCache {
 public:
  /// `capacity_bytes` bounds the sum of ApproxSnapshotBytes over resident
  /// entries; inserting past it evicts least-recently-used snapshots
  /// (evicted snapshots stay alive while jobs still hold their InstancePtr).
  explicit SnapshotCache(std::size_t capacity_bytes,
                         obs::MetricRegistry* metrics = nullptr);

  /// The snapshot cached under `hash`, refreshing its recency; nullptr on
  /// miss. Counts serve.snapshot_cache.{hits,misses}.
  api::InstancePtr Lookup(std::uint64_t hash);

  /// Caches `instance` under `hash` (replacing any previous entry), then
  /// evicts LRU entries until the byte budget holds again. A snapshot
  /// larger than the whole budget is rejected with ResourceExhausted
  /// (counted under serve.snapshot_cache.oversized) rather than admitted
  /// at the cost of evicting everything else; the caller keeps using its
  /// InstancePtr uncached.
  Status Insert(std::uint64_t hash, api::InstancePtr instance);

  std::size_t size() const;
  std::size_t resident_bytes() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    api::InstancePtr instance;
    std::size_t bytes = 0;
  };

  void EvictOverBudgetLocked();

  const std::size_t capacity_bytes_;
  obs::MetricRegistry* const metrics_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t resident_bytes_ = 0;
};

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
