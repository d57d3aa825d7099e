#include "src/pattern/pattern_system.h"

namespace scwsc {
namespace pattern {

Result<PatternSystem> PatternSystem::Build(const Table& table,
                                           const CostFunction& cost_fn,
                                           const EnumerateOptions& options) {
  if (!table.has_measure()) {
    return Status::InvalidArgument(
        "PatternSystem requires a measure column for pattern costs");
  }
  SCWSC_ASSIGN_OR_RETURN(auto enumerated, EnumerateAllPatterns(table, options));

  SetSystem system(table.num_rows());
  std::vector<Pattern> patterns;
  patterns.reserve(enumerated.size());
  // Rows are element ids of the row universe: each pattern's ascending row
  // list moves into its set without a copy or a re-sort.
  for (auto& ep : enumerated) {
    const double cost = cost_fn.Compute(table, ep.rows);
    SCWSC_ASSIGN_OR_RETURN(SetId id, system.AddSet(std::move(ep.rows), cost));
    (void)id;
    patterns.push_back(std::move(ep.pattern));
  }
  return PatternSystem(table, std::move(system), std::move(patterns));
}

PatternSolution PatternSystem::ToPatternSolution(
    const Solution& solution) const {
  PatternSolution out;
  out.total_cost = solution.total_cost;
  out.covered = solution.covered;
  out.patterns.reserve(solution.sets.size());
  for (SetId id : solution.sets) out.patterns.push_back(patterns_[id]);
  return out;
}

}  // namespace pattern
}  // namespace scwsc
