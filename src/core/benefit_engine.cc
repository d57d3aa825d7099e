#include "src/core/benefit_engine.h"

#include <algorithm>
#include <atomic>

#include "src/common/fault.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace {

/// Density heuristic for kAuto: a packed row costs ~n/64 word ops per
/// recount, the sorted list costs ~|elements| bit tests, so the row wins
/// once the set holds at least one element per word of the universe.
bool DenseEnoughForRow(std::size_t set_size, std::size_t num_elements) {
  return set_size * 64 >= num_elements;
}

}  // namespace

BenefitEngine::BenefitEngine(const SetSystem& system,
                             const EngineOptions& options,
                             const RunContext* run_context)
    : system_(system),
      options_(options),
      ctx_(run_context != nullptr ? run_context : &RunContext::Unlimited()),
      covered_(system.num_elements()),
      words_per_row_(covered_.num_words()) {
  if (options_.trace != nullptr) {
    obs::MetricRegistry& metrics = options_.trace->metrics();
    celf_hits_ = &metrics.counter("engine.celf_hits");
    celf_misses_ = &metrics.counter("engine.celf_misses");
    batch_scans_ = &metrics.counter("engine.batch_scans");
    batch_shards_ = &metrics.counter("engine.batch_shards");
    shard_recoveries_ = &metrics.counter("engine.shard_recoveries");
  }
  const std::size_t m = system.num_sets();
  count_.reserve(m);
  for (const auto& s : system.sets()) count_.push_back(s.elements.size());

  if (options_.marginal_mode == MarginalMode::kEager) {
    inverted_ = system.BuildInvertedIndex();
    return;
  }

  row_of_.assign(m, kNoRow);
  if (options_.membership != MembershipRepr::kList) {
    // Materialize packed rows for every set the representation picks.
    std::size_t num_rows = 0;
    for (SetId id = 0; id < m; ++id) {
      const std::size_t size = system.set(id).elements.size();
      if (options_.membership == MembershipRepr::kBitset ||
          DenseEnoughForRow(size, system.num_elements())) {
        row_of_[id] = static_cast<std::uint32_t>(num_rows++);
      }
    }
    rows_.assign(num_rows * words_per_row_, 0);
    for (SetId id = 0; id < m; ++id) {
      if (row_of_[id] == kNoRow) continue;
      std::uint64_t* row = rows_.data() + row_of_[id] * words_per_row_;
      for (ElementId e : system.set(id).elements) {
        row[e >> 6] |= std::uint64_t{1} << (e & 63);
      }
    }
  }

  if (options_.num_shards > 1) {
    bounds_ = ShardBounds(system.num_elements(), options_.num_shards);
    num_shards_ = bounds_.size() - 1;
  }
  if (!sharded()) {
    stamp_.assign(m, 0);
    return;
  }

  const std::size_t S = num_shards_;
  word_bounds_.resize(S + 1);
  for (std::size_t s = 0; s < S; ++s) word_bounds_[s] = bounds_[s] / 64;
  word_bounds_[S] = covered_.num_words();  // last bound may be mid-word
  shard_covered_.assign(S, 0);
  slice_begin_.assign(m * (S + 1), 0);
  shard_count_.assign(m * S, 0);
  shard_stamp_.assign(m * S, 0);
  for (SetId id = 0; id < m; ++id) {
    const auto& elems = system.set(id).elements;
    const std::size_t pos = id * (S + 1);
    // Sorted elements cut at the shard bounds; slice s is
    // elems[slice_begin[s] .. slice_begin[s+1]).
    for (std::size_t s = 1; s <= S; ++s) {
      slice_begin_[pos + s] = static_cast<std::uint32_t>(
          std::lower_bound(elems.begin(), elems.end(),
                           static_cast<ElementId>(bounds_[s])) -
          elems.begin());
    }
    for (std::size_t s = 0; s < S; ++s) {
      shard_count_[id * S + s] =
          slice_begin_[pos + s + 1] - slice_begin_[pos + s];
    }
  }
}

void BenefitEngine::Reset() {
  covered_.clear();
  for (SetId id = 0; id < count_.size(); ++id) {
    count_[id] = system_.set(id).elements.size();
  }
  if (!stamp_.empty()) std::fill(stamp_.begin(), stamp_.end(), 0);
  if (sharded()) {
    std::fill(shard_covered_.begin(), shard_covered_.end(), 0);
    std::fill(shard_stamp_.begin(), shard_stamp_.end(), 0);
    const std::size_t S = num_shards_;
    for (SetId id = 0; id < count_.size(); ++id) {
      const std::size_t pos = id * (S + 1);
      for (std::size_t s = 0; s < S; ++s) {
        shard_count_[id * S + s] =
            slice_begin_[pos + s + 1] - slice_begin_[pos + s];
      }
    }
  }
}

std::size_t BenefitEngine::Recount(SetId id) const {
  if (row_of_.empty() || row_of_[id] == kNoRow) {
    return covered_.CountClear(system_.set(id).elements);
  }
  return covered_.AndNotCount(rows_.data() + row_of_[id] * words_per_row_,
                              words_per_row_);
}

std::size_t BenefitEngine::RecountSlice(SetId id, std::size_t s) const {
  if (!row_of_.empty() && row_of_[id] != kNoRow) {
    return covered_.AndNotCountWords(
        rows_.data() + row_of_[id] * words_per_row_, word_bounds_[s],
        word_bounds_[s + 1]);
  }
  const auto& elems = system_.set(id).elements;
  return covered_.CountClear(elems.data() + SliceBegin(id, s),
                             elems.data() + SliceBegin(id, s + 1));
}

std::size_t BenefitEngine::MarginalCount(SetId id) {
  if (options_.marginal_mode == MarginalMode::kEager) return count_[id];

  if (sharded()) {
    if (count_[id] == 0) {
      if (celf_hits_ != nullptr) celf_hits_->Increment();
      return 0;
    }
    // Recount only the slices whose shard coverage moved; fresh slices —
    // including every shard untouched since the last read — contribute
    // their cached count in O(1). A zero slice can never grow, so it is
    // fresh at any epoch.
    bool stale = false;
    std::size_t total = 0;
    const std::size_t S = num_shards_;
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t idx = id * S + s;
      if (shard_count_[idx] != 0 &&
          shard_stamp_[idx] != shard_covered_[s]) {
        stale = true;
        ctx_->ChargeRecounts(SliceBegin(id, s + 1) - SliceBegin(id, s));
        shard_count_[idx] = RecountSlice(id, s);
        shard_stamp_[idx] = shard_covered_[s];
      }
      total += shard_count_[idx];
    }
    count_[id] = total;
    if (stale) {
      if (celf_misses_ != nullptr) celf_misses_->Increment();
    } else {
      if (celf_hits_ != nullptr) celf_hits_->Increment();
    }
    return total;
  }

  const std::size_t epoch = covered_.count();
  if (stamp_[id] == epoch || count_[id] == 0) {
    if (celf_hits_ != nullptr) celf_hits_->Increment();
    return count_[id];
  }
  if (celf_misses_ != nullptr) celf_misses_->Increment();
  // The recount itself stays exact; the charge only decrements the budget
  // and latches a trip for the caller's next Check().
  ctx_->ChargeRecounts(system_.set(id).elements.size());
  count_[id] = Recount(id);
  stamp_[id] = epoch;
  return count_[id];
}

std::size_t BenefitEngine::Select(SetId id) {
  if (options_.marginal_mode == MarginalMode::kEager) {
    std::size_t newly = 0;
    for (ElementId e : system_.set(id).elements) {
      if (covered_.set(e)) {
        ++newly;
        for (SetId other : inverted_[e]) --count_[other];
      }
    }
    return newly;
  }

  if (sharded()) {
    // Cover shard by shard so exactly the shards that gained elements have
    // their epochs bumped; shards where the set has no elements are skipped
    // outright (their rows words are zero there anyway).
    const std::size_t S = num_shards_;
    const bool has_row = !row_of_.empty() && row_of_[id] != kNoRow;
    const std::uint64_t* row =
        has_row ? rows_.data() + row_of_[id] * words_per_row_ : nullptr;
    const auto& elems = system_.set(id).elements;
    std::size_t newly = 0;
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t b = SliceBegin(id, s);
      const std::size_t e = SliceBegin(id, s + 1);
      if (b == e) continue;
      std::size_t newly_s;
      if (has_row) {
        newly_s =
            covered_.UnionWithWords(row, word_bounds_[s], word_bounds_[s + 1]);
      } else {
        newly_s = 0;
        for (std::size_t j = b; j < e; ++j) {
          if (covered_.set(elems[j])) ++newly_s;
        }
      }
      if (newly_s != 0) {
        shard_covered_[s] += newly_s;
        newly += newly_s;
      }
    }
    // The selected set is exhausted in every shard; pin its slices at the
    // now-current epochs so zero-count short-circuits without recounts.
    for (std::size_t s = 0; s < S; ++s) {
      shard_count_[id * S + s] = 0;
      shard_stamp_[id * S + s] = shard_covered_[s];
    }
    count_[id] = 0;
    return newly;
  }

  std::size_t newly;
  if (!row_of_.empty() && row_of_[id] != kNoRow) {
    newly = covered_.UnionWith(rows_.data() + row_of_[id] * words_per_row_,
                               words_per_row_);
  } else {
    newly = 0;
    for (ElementId e : system_.set(id).elements) {
      if (covered_.set(e)) ++newly;
    }
  }
  // The selected set itself is exhausted; pin its count so zero-count
  // short-circuits without a recount.
  count_[id] = 0;
  stamp_[id] = covered_.count();
  return newly;
}

void BenefitEngine::ComputeShardStripe(std::size_t s,
                                       const std::vector<SetId>& ids,
                                       std::size_t* stripe,
                                       std::atomic<bool>& aborted) {
  const std::size_t S = num_shards_;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SetId id = ids[i];
    const std::size_t idx = id * S + s;
    const std::size_t b = SliceBegin(id, s);
    const std::size_t e = SliceBegin(id, s + 1);
    if (b == e) {
      stripe[i] = 0;
      continue;
    }
    if (shard_count_[idx] == 0 || shard_stamp_[idx] == shard_covered_[s]) {
      stripe[i] = shard_count_[idx];
      continue;
    }
    if (aborted.load(std::memory_order_relaxed) ||
        ctx_->ChargeRecounts(e - b) != TripKind::kNone) {
      aborted.store(true, std::memory_order_relaxed);
      stripe[i] = shard_count_[idx];
      continue;
    }
    stripe[i] = RecountSlice(id, s);
  }
}

Status BenefitEngine::BatchMarginals(const std::vector<SetId>& ids,
                                     std::vector<std::size_t>& out) {
  out.resize(ids.size());
  if (options_.marginal_mode == MarginalMode::kEager) {
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = count_[ids[i]];
    return Status::OK();
  }
  if (const TripKind trip = ctx_->Check(); trip != TripKind::kNone) {
    // Already interrupted: hand back the cached counts (valid CELF upper
    // bounds) without recounting or committing anything.
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = count_[ids[i]];
    return TripStatus(trip, "BatchMarginals");
  }
  ThreadPool& p = pool();
  if (batch_scans_ != nullptr) batch_scans_->Increment();

  if (sharded()) {
    // Fan out one task per shard: each task reads only immutable batch
    // state (covered words, caches, epochs) and writes its own disjoint
    // stripe of the scratch buffer; the cache commit below stays serial.
    const std::size_t n = ids.size();
    const std::size_t S = num_shards_;
    stripe_scratch_.assign(S * n, 0);
    std::vector<unsigned char> lost(S, 0);
    std::atomic<bool> aborted{false};
    obs::Span batch_span;
    if (options_.trace != nullptr && p.size() > 1) {
      batch_span = obs::Span(options_.trace, "engine.batch");
    }
    // Per-stripe wall time goes two places: the always-on flight recorder
    // (as engine.stripe/<s> complete events, for post-hoc skew forensics)
    // and — when a trace session is attached — a per-shard quantile sketch
    // the telemetry pump merges into an engine.stripe_seconds aggregate.
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    auto timed_stripe = [&](std::size_t s) {
      const std::int64_t t0 = recorder.NowNs();
      ComputeShardStripe(s, ids, stripe_scratch_.data() + s * n, aborted);
      const std::int64_t t1 = recorder.NowNs();
      recorder.RecordComplete("engine.stripe/" + std::to_string(s), t0, t1);
      if (options_.trace != nullptr) {
        options_.trace->metrics()
            .sketch("engine.stripe_seconds#" + std::to_string(s))
            .Observe(static_cast<double>(t1 - t0) * 1e-9);
      }
    };
    const Status pool_status =
        p.ParallelFor(S, 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            if (batch_shards_ != nullptr) batch_shards_->Increment();
            if (FaultFires(FaultPoint::kShardWorkerLoss)) {
              lost[s] = 1;  // dropped before scanning anything
              continue;
            }
            timed_stripe(s);
          }
        });
    SCWSC_RETURN_NOT_OK(pool_status);
    // Recover lost shards inline: recomputing a stripe serially yields the
    // same values a surviving worker would have produced, so a fault costs
    // latency but never changes a count.
    for (std::size_t s = 0; s < S; ++s) {
      if (!lost[s]) continue;
      if (shard_recoveries_ != nullptr) shard_recoveries_->Increment();
      timed_stripe(s);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t total = 0;
      for (std::size_t s = 0; s < S; ++s) total += stripe_scratch_[s * n + i];
      out[i] = total;
    }
    if (aborted.load(std::memory_order_relaxed)) {
      // Mixed fresh/stale stripes are still upper bounds; skip the commit
      // so no stale slice is stamped at the current epoch.
      return TripStatus(ctx_->tripped(), "BatchMarginals");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const SetId id = ids[i];
      for (std::size_t s = 0; s < S; ++s) {
        shard_count_[id * S + s] = stripe_scratch_[s * n + i];
        shard_stamp_[id * S + s] = shard_covered_[s];
      }
      count_[id] = out[i];
    }
    return Status::OK();
  }

  const std::size_t epoch = covered_.count();
  // Parallel batches are the engine's only multi-threaded phase; give them
  // a span so the chunk fan-out is visible in the trace.
  obs::Span batch_span;
  if (options_.trace != nullptr && p.size() > 1 &&
      ids.size() >= options_.min_parallel_batch) {
    batch_span = obs::Span(options_.trace, "engine.batch");
  }
  // Chunks write disjoint out slots; the cache commit below is serial, so
  // duplicate ids and any thread count yield identical results. Once any
  // chunk observes a trip, later indices fall back to the cached counts.
  std::atomic<bool> aborted{false};
  const Status pool_status = p.ParallelFor(
      ids.size(), options_.min_parallel_batch,
      [&](std::size_t begin, std::size_t end) {
        if (batch_shards_ != nullptr) batch_shards_->Increment();
        for (std::size_t i = begin; i < end; ++i) {
          const SetId id = ids[i];
          if (stamp_[id] == epoch || count_[id] == 0) {
            out[i] = count_[id];
            continue;
          }
          if (aborted.load(std::memory_order_relaxed) ||
              ctx_->ChargeRecounts(system_.set(id).elements.size()) !=
                  TripKind::kNone) {
            aborted.store(true, std::memory_order_relaxed);
            out[i] = count_[id];
            continue;
          }
          out[i] = Recount(id);
        }
      });
  SCWSC_RETURN_NOT_OK(pool_status);
  if (aborted.load(std::memory_order_relaxed)) {
    // Mixed fresh/stale results: skip the commit entirely so the cache is
    // never poisoned with a stale count stamped at the current epoch.
    return TripStatus(ctx_->tripped(), "BatchMarginals");
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    count_[ids[i]] = out[i];
    stamp_[ids[i]] = epoch;
  }
  return Status::OK();
}

ThreadPool& BenefitEngine::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return *pool_;
}

Status FilterCoveredIds(const DynamicBitset& covered,
                        const std::vector<std::vector<std::uint32_t>*>& lists,
                        ThreadPool* pool, const RunContext* run_context) {
  const RunContext& ctx =
      run_context != nullptr ? *run_context : RunContext::Unlimited();
  std::atomic<bool> aborted{false};
  auto filter_range = [&](std::size_t begin, std::size_t end) {
    // One trip check per chunk: a skipped list stays a valid superset of
    // the filtered one, and callers bail out on the returned status.
    if (aborted.load(std::memory_order_relaxed) ||
        ctx.Check() != TripKind::kNone) {
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      auto& list = *lists[i];
      list.erase(std::remove_if(
                     list.begin(), list.end(),
                     [&](std::uint32_t id) { return covered.test(id); }),
                 list.end());
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    SCWSC_RETURN_NOT_OK(pool->ParallelFor(lists.size(), 16, filter_range));
  } else {
    filter_range(0, lists.size());
  }
  if (aborted.load(std::memory_order_relaxed)) {
    return TripStatus(ctx.tripped(), "FilterCoveredIds");
  }
  return Status::OK();
}

}  // namespace scwsc
