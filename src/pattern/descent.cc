#include "src/pattern/descent.h"

#include "src/pattern/pattern.h"

namespace scwsc {
namespace pattern {

Status ValidateCwscOptions(const Table& table, const CwscOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  if (!table.has_measure()) {
    return Status::InvalidArgument("pattern costs require a measure column");
  }
  return Status::OK();
}

Status ValidateCmcOptions(const Table& table, const CmcOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.l == 0) return Status::InvalidArgument("l must be positive");
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  if (options.b <= 0.0) {
    return Status::InvalidArgument("budget growth b must be positive");
  }
  if (options.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  if (!table.has_measure()) {
    return Status::InvalidArgument("pattern costs require a measure column");
  }
  return Status::OK();
}

double CmcBudgetSeed(const Table& table, std::size_t k) {
  double min_measure = 0.0;
  double min_positive_measure = 0.0;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    const double m = table.measure(r);
    if (r == 0 || m < min_measure) min_measure = m;
    if (m > 0.0 && (min_positive_measure == 0.0 || m < min_positive_measure)) {
      min_positive_measure = m;
    }
  }
  const double budget = static_cast<double>(k) * std::max(min_measure, 0.0);
  if (budget > 0.0) return budget;
  return min_positive_measure > 0.0 ? min_positive_measure : 1.0;
}

std::vector<double> CoverableThresholds(const Table& table,
                                        const CostFunction& cost_fn) {
  const std::size_t n = table.num_rows();
  if (cost_fn.kind() != CostKind::kMax) {
    for (RowId r = 0; r < n; ++r) {
      if (table.measure(r) < 0.0) return {};
    }
  }
  std::unordered_map<Pattern, std::vector<RowId>, PatternHash> groups;
  for (RowId r = 0; r < n; ++r) {
    std::vector<ValueId> key(table.num_attributes());
    for (std::size_t a = 0; a < key.size(); ++a) key[a] = table.value(r, a);
    groups[Pattern(std::move(key))].push_back(r);
  }
  std::vector<double> thresholds;
  thresholds.reserve(n);
  for (const auto& [pat, rows] : groups) {
    thresholds.insert(thresholds.end(), rows.size(),
                      cost_fn.Compute(table, rows));
  }
  std::sort(thresholds.begin(), thresholds.end());
  return thresholds;
}

}  // namespace pattern
}  // namespace scwsc
