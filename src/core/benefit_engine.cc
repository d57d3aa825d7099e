#include "src/core/benefit_engine.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace scwsc {

BenefitEngine::BenefitEngine(const SolveIndex& index,
                             const RunContext* run_context,
                             obs::TraceSession* trace)
    : index_(index),
      ctx_(run_context != nullptr ? run_context : &RunContext::Unlimited()),
      covered_(index.system().num_elements()),
      count_(index.sizes()),
      stamp_(count_.size(), 0) {
  if (trace != nullptr) {
    obs::MetricRegistry& metrics = trace->metrics();
    celf_hits_ = &metrics.counter("engine.celf_hits");
    celf_misses_ = &metrics.counter("engine.celf_misses");
    batch_scans_ = &metrics.counter("engine.batch_scans");
  }
}

BenefitEngine::BenefitEngine(const SetSystem& system,
                             const RunContext* run_context,
                             obs::TraceSession* trace)
    : BenefitEngine(std::make_unique<const SolveIndex>(system), run_context,
                    trace) {}

BenefitEngine::BenefitEngine(std::unique_ptr<const SolveIndex> owned,
                             const RunContext* run_context,
                             obs::TraceSession* trace)
    : BenefitEngine(*owned, run_context, trace) {
  owned_ = std::move(owned);
}

void BenefitEngine::Reset() {
  covered_.clear();
  count_ = index_.sizes();
  std::fill(stamp_.begin(), stamp_.end(), 0);
}

std::size_t BenefitEngine::Recount(SetId id) const {
  if (const std::uint64_t* row = index_.row(id)) {
    return covered_.AndNotCount(row, index_.words_per_row());
  }
  return covered_.CountClear(index_.system().set(id).elements);
}

std::size_t BenefitEngine::MarginalCount(SetId id) {
  const std::size_t epoch = covered_.count();
  if (stamp_[id] == epoch || count_[id] == 0) {
    if (celf_hits_ != nullptr) celf_hits_->Increment();
    return count_[id];
  }
  if (celf_misses_ != nullptr) celf_misses_->Increment();
  // The recount itself stays exact; the charge only decrements the budget
  // and latches a trip for the caller's next Check().
  ctx_->ChargeRecounts(index_.sizes()[id]);
  count_[id] = static_cast<std::uint32_t>(Recount(id));
  stamp_[id] = static_cast<std::uint32_t>(epoch);
  return count_[id];
}

std::size_t BenefitEngine::Select(SetId id) {
  std::size_t newly;
  if (const std::uint64_t* row = index_.row(id)) {
    newly = covered_.UnionWith(row, index_.words_per_row());
  } else {
    newly = 0;
    for (ElementId e : index_.system().set(id).elements) {
      if (covered_.set(e)) ++newly;
    }
  }
  // The selected set itself is exhausted; pin its count so zero-count
  // short-circuits without a recount.
  count_[id] = 0;
  stamp_[id] = static_cast<std::uint32_t>(covered_.count());
  return newly;
}

Status BenefitEngine::BatchMarginals(const std::vector<SetId>& ids,
                                     std::vector<std::size_t>& out) {
  out.resize(ids.size());
  if (const TripKind trip = ctx_->Check(); trip != TripKind::kNone) {
    // Already interrupted: hand back the cached counts (valid CELF upper
    // bounds) without recounting or committing anything.
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = count_[ids[i]];
    return TripStatus(trip, "BatchMarginals");
  }
  if (batch_scans_ != nullptr) batch_scans_->Increment();

  // Once a recount charge trips, every later slot falls back to its cached
  // count. The commit below is a separate pass, so duplicate ids read the
  // same pre-batch cache state.
  const std::size_t epoch = covered_.count();
  bool tripped = false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SetId id = ids[i];
    if (tripped || stamp_[id] == epoch || count_[id] == 0) {
      out[i] = count_[id];
      continue;
    }
    if (ctx_->ChargeRecounts(index_.sizes()[id]) != TripKind::kNone) {
      tripped = true;
      out[i] = count_[id];
      continue;
    }
    out[i] = Recount(id);
  }
  if (tripped) {
    // Mixed fresh/stale results: skip the commit entirely so the cache is
    // never poisoned with a stale count stamped at the current epoch.
    return TripStatus(ctx_->tripped(), "BatchMarginals");
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    count_[ids[i]] = static_cast<std::uint32_t>(out[i]);
    stamp_[ids[i]] = static_cast<std::uint32_t>(epoch);
  }
  return Status::OK();
}

Status FilterCoveredIds(const DynamicBitset& covered,
                        const std::vector<std::vector<std::uint32_t>*>& lists,
                        const RunContext* run_context) {
  const RunContext& ctx =
      run_context != nullptr ? *run_context : RunContext::Unlimited();
  if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
    return TripStatus(trip, "FilterCoveredIds");
  }
  for (std::vector<std::uint32_t>* list : lists) {
    list->erase(std::remove_if(
                    list->begin(), list->end(),
                    [&](std::uint32_t id) { return covered.test(id); }),
                list->end());
  }
  return Status::OK();
}

}  // namespace scwsc
