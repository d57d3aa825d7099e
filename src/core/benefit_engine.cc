#include "src/core/benefit_engine.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace scwsc {
namespace {

/// The density rule: a packed row costs ~n/64 word ops per recount, the
/// sorted list costs ~|elements| bit tests, so the row wins once the set
/// holds at least one element per word of the universe.
bool DenseEnoughForRow(std::size_t set_size, std::size_t num_elements) {
  return set_size * 64 >= num_elements;
}

}  // namespace

BenefitEngine::BenefitEngine(const SetSystem& system,
                             const RunContext* run_context,
                             obs::TraceSession* trace)
    : system_(system),
      ctx_(run_context != nullptr ? run_context : &RunContext::Unlimited()),
      covered_(system.num_elements()),
      words_per_row_(covered_.num_words()) {
  if (trace != nullptr) {
    obs::MetricRegistry& metrics = trace->metrics();
    celf_hits_ = &metrics.counter("engine.celf_hits");
    celf_misses_ = &metrics.counter("engine.celf_misses");
    batch_scans_ = &metrics.counter("engine.batch_scans");
  }
  const std::size_t m = system.num_sets();
  count_.reserve(m);
  for (const auto& s : system.sets()) count_.push_back(s.elements.size());
  stamp_.assign(m, 0);

  // Materialize packed rows for every set dense enough to want one.
  row_of_.assign(m, kNoRow);
  std::size_t num_rows = 0;
  for (SetId id = 0; id < m; ++id) {
    if (DenseEnoughForRow(count_[id], system.num_elements())) {
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

void BenefitEngine::Reset() {
  covered_.clear();
  for (SetId id = 0; id < count_.size(); ++id) {
    count_[id] = system_.set(id).elements.size();
  }
  std::fill(stamp_.begin(), stamp_.end(), 0);
}

std::size_t BenefitEngine::Recount(SetId id) const {
  if (row_of_[id] == kNoRow) {
    return covered_.CountClear(system_.set(id).elements);
  }
  return covered_.AndNotCount(rows_.data() + row_of_[id] * words_per_row_,
                              words_per_row_);
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
  ctx_->ChargeRecounts(system_.set(id).elements.size());
  count_[id] = Recount(id);
  stamp_[id] = epoch;
  return count_[id];
}

std::size_t BenefitEngine::Select(SetId id) {
  std::size_t newly;
  if (row_of_[id] != kNoRow) {
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
    if (ctx_->ChargeRecounts(system_.set(id).elements.size()) !=
        TripKind::kNone) {
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
    count_[ids[i]] = out[i];
    stamp_[ids[i]] = epoch;
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
