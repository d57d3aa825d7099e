#include "src/ext/incremental.h"

#include <string_view>

#include "src/api/delta.h"
#include "src/table/builder.h"

namespace scwsc {
namespace ext {
namespace {

/// Re-encodes a pattern built against `from`'s dictionaries into `to`'s.
/// Every constant value must exist in `to` (true whenever `to` contains all
/// the rows the pattern was mined from).
Result<pattern::Pattern> TranslatePattern(const pattern::Pattern& p,
                                          const Table& from, const Table& to) {
  std::vector<ValueId> values(p.num_attributes(), pattern::kAll);
  for (std::size_t a = 0; a < p.num_attributes(); ++a) {
    if (p.is_wildcard(a)) continue;
    const std::string& name = from.dictionary(a).Name(p.value(a));
    SCWSC_ASSIGN_OR_RETURN(values[a], to.dictionary(a).Find(name));
  }
  return pattern::Pattern(std::move(values));
}

}  // namespace

IncrementalCwsc::IncrementalCwsc(std::vector<std::string> attribute_names,
                                 std::string measure_name,
                                 pattern::CostFunction cost_fn,
                                 IncrementalOptions options)
    : attribute_names_(std::move(attribute_names)),
      measure_name_(std::move(measure_name)),
      cost_fn_(cost_fn),
      options_(options) {}

Status IncrementalCwsc::Append(
    const std::vector<std::vector<std::string>>& rows,
    const std::vector<double>& measures) {
  if (rows.size() != measures.size()) {
    return Status::InvalidArgument("rows/measures length mismatch");
  }
  // Either path rejects a wrong arity or a non-finite measure before
  // snapshot_ changes.
  if (snapshot_ == nullptr && !rows.empty()) {
    TableBuilder builder(attribute_names_, measure_name_);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::vector<std::string_view> views(rows[i].begin(), rows[i].end());
      SCWSC_RETURN_NOT_OK(builder.AddRow(views, measures[i]));
    }
    SCWSC_ASSIGN_OR_RETURN(
        snapshot_, api::InstanceSnapshot::FromTable(std::move(builder).Build(),
                                                    cost_fn_));
  } else if (!rows.empty()) {
    api::SnapshotDelta delta;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      delta.append_rows.push_back({rows[i], measures[i]});
    }
    SCWSC_ASSIGN_OR_RETURN(api::AppliedDelta applied,
                           api::ApplyDelta(snapshot_, delta));
    snapshot_ = std::move(applied.snapshot);
  }
  ++stats_.batches;
  const std::size_t target =
      SetSystem::CoverageTarget(options_.coverage_fraction, num_rows());
  // Nothing has arrived yet, or the solution still covers enough.
  if (snapshot_ == nullptr || ReevaluateSolution() >= target) {
    ++stats_.no_op_batches;
    return Status::OK();
  }
  if (options_.policy == RepairPolicy::kRecompute) return FullRecompute();
  return TryRepair();
}

std::size_t IncrementalCwsc::ReevaluateSolution() {
  const Table& table = snapshot_->table();
  const std::size_t n = table.num_rows();
  covered_.assign(n, false);
  solution_.total_cost = 0.0;
  std::size_t covered_count = 0;
  std::vector<RowId> ben;
  for (const pattern::Pattern& p : solution_.patterns) {
    ben.clear();
    for (RowId r = 0; r < n; ++r) {
      if (p.Matches(table, r)) {
        ben.push_back(r);
        if (!covered_[r]) {
          covered_[r] = true;
          ++covered_count;
        }
      }
    }
    solution_.total_cost += cost_fn_.Compute(table, ben);
  }
  solution_.covered = covered_count;
  return covered_count;
}

Status IncrementalCwsc::FullRecompute() {
  CwscOptions opts;
  opts.k = options_.k;
  opts.coverage_fraction = options_.coverage_fraction;
  opts.run_context = options_.run_context;
  SCWSC_ASSIGN_OR_RETURN(
      solution_, pattern::RunOptimizedCwsc(snapshot_->table(), cost_fn_, opts));
  ++stats_.full_recomputes;
  ReevaluateSolution();
  return Status::OK();
}

Status IncrementalCwsc::TryRepair() {
  const std::size_t used = solution_.patterns.size();
  if (used >= options_.k) return FullRecompute();
  const std::size_t budget = options_.k - used;

  const std::size_t target =
      SetSystem::CoverageTarget(options_.coverage_fraction, num_rows());
  const std::size_t needed = target - solution_.covered;  // > 0 here
  if (needed > num_rows() - solution_.covered) {
    return Status::Internal("coverage target exceeds uncovered rows");
  }

  // Residual problem: the uncovered rows only, in order.
  api::SnapshotDelta residual_delta;
  for (std::size_t r = 0; r < covered_.size(); ++r) {
    if (covered_[r]) residual_delta.retract_rows.push_back(r);
  }
  SCWSC_ASSIGN_OR_RETURN(api::AppliedDelta residual,
                         api::ApplyDelta(snapshot_, residual_delta));
  const Table& residual_table = residual.snapshot->table();

  CwscOptions opts;
  opts.k = budget;
  opts.coverage_fraction = static_cast<double>(needed) /
                           static_cast<double>(residual_table.num_rows());
  opts.run_context = options_.run_context;
  auto patch = pattern::RunOptimizedCwsc(residual_table, cost_fn_, opts);
  if (!patch.ok()) {
    // An interruption must surface, not trigger an (equally doomed and more
    // expensive) full recompute.
    if (patch.status().IsInterruption()) return patch.status();
    return FullRecompute();
  }

  for (const pattern::Pattern& p : patch->patterns) {
    SCWSC_ASSIGN_OR_RETURN(
        pattern::Pattern translated,
        TranslatePattern(p, residual_table, snapshot_->table()));
    solution_.patterns.push_back(std::move(translated));
  }
  const std::size_t covered_now = ReevaluateSolution();
  if (covered_now < target) {
    // The patch met its residual target, so this indicates drift between
    // the residual and full encodings; recompute defensively.
    return FullRecompute();
  }
  ++stats_.repairs;
  return Status::OK();
}

}  // namespace ext
}  // namespace scwsc
