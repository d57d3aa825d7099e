#include "src/ext/incremental.h"

#include <string_view>

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
  for (const auto& row : rows) {
    if (row.size() != attribute_names_.size()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
  }
  raw_rows_.insert(raw_rows_.end(), rows.begin(), rows.end());
  raw_measures_.insert(raw_measures_.end(), measures.begin(), measures.end());
  ++stats_.batches;
  return Refresh();
}

Status IncrementalCwsc::Refresh() {
  // Rebuild the table in original row order: dictionary ids are assigned in
  // first-seen order, so ids of previously seen values are stable across
  // rebuilds and the retained solution patterns remain valid.
  TableBuilder builder(attribute_names_, measure_name_);
  for (std::size_t i = 0; i < raw_rows_.size(); ++i) {
    std::vector<std::string_view> views(raw_rows_[i].begin(),
                                        raw_rows_[i].end());
    SCWSC_RETURN_NOT_OK(builder.AddRow(views, raw_measures_[i]));
  }
  table_ = std::move(builder).Build();

  const std::size_t covered_now = ReevaluateSolution();
  const std::size_t target = SetSystem::CoverageTarget(
      options_.coverage_fraction, table_->num_rows());
  if (covered_now >= target) {
    ++stats_.no_op_batches;
    return Status::OK();
  }
  if (options_.policy == RepairPolicy::kRecompute) return FullRecompute();
  return TryRepair();
}

std::size_t IncrementalCwsc::ReevaluateSolution() {
  const Table& table = *table_;
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
  SCWSC_ASSIGN_OR_RETURN(solution_,
                         pattern::RunOptimizedCwsc(*table_, cost_fn_, opts));
  ++stats_.full_recomputes;
  ReevaluateSolution();
  return Status::OK();
}

Status IncrementalCwsc::TryRepair() {
  const std::size_t used = solution_.patterns.size();
  if (used >= options_.k) return FullRecompute();
  const std::size_t budget = options_.k - used;

  // Residual problem: the uncovered rows only.
  const Table& table = *table_;
  std::vector<std::size_t> uncovered;
  for (std::size_t r = 0; r < covered_.size(); ++r) {
    if (!covered_[r]) uncovered.push_back(r);
  }
  const std::size_t target = SetSystem::CoverageTarget(
      options_.coverage_fraction, table.num_rows());
  const std::size_t needed = target - solution_.covered;  // > 0 here
  if (needed > uncovered.size()) {
    return Status::Internal("coverage target exceeds uncovered rows");
  }

  TableBuilder builder(attribute_names_, measure_name_);
  for (std::size_t r : uncovered) {
    std::vector<std::string_view> views(raw_rows_[r].begin(),
                                        raw_rows_[r].end());
    SCWSC_RETURN_NOT_OK(builder.AddRow(views, raw_measures_[r]));
  }
  const Table residual = std::move(builder).Build();

  CwscOptions opts;
  opts.k = budget;
  opts.coverage_fraction = static_cast<double>(needed) /
                           static_cast<double>(residual.num_rows());
  opts.run_context = options_.run_context;
  auto patch = pattern::RunOptimizedCwsc(residual, cost_fn_, opts);
  if (!patch.ok()) {
    // An interruption must surface, not trigger an (equally doomed and more
    // expensive) full recompute.
    if (patch.status().IsInterruption()) return patch.status();
    return FullRecompute();
  }

  for (const pattern::Pattern& p : patch->patterns) {
    SCWSC_ASSIGN_OR_RETURN(pattern::Pattern translated,
                           TranslatePattern(p, residual, table));
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
