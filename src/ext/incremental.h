// Incremental size-constrained weighted set cover (paper §VII future work).
//
// "One interesting direction for future work is to study an incremental
// version of size-constrained weighted set cover, in which the solution
// must be continuously maintained as new elements arrive."
//
// IncrementalCwsc maintains a pattern solution over a growing table of
// records. After each appended batch it re-evaluates the current solution
// against the enlarged data set (benefits can only grow, costs can grow
// under max/sum/lp weights, and the coverage *fraction* can drop as
// uncovered records arrive) and, when the coverage constraint is violated,
// repairs it under one of two policies:
//
//  - kRecompute: run optimized CWSC from scratch on the current table —
//    the quality reference.
//  - kRepair: keep the selected patterns and spend the remaining size
//    budget k - |S| on the *residual* problem (optimized CWSC over the
//    still-uncovered rows); falls back to a full recompute when the budget
//    is exhausted or the residual run fails. Much cheaper on streams whose
//    distribution drifts slowly; quality is re-auditable via solution().
//
// The table is rebuilt per batch (columnar storage is immutable here); the
// incremental savings target the *solver* work, which dominates.

#ifndef SCWSC_EXT_INCREMENTAL_H_
#define SCWSC_EXT_INCREMENTAL_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/cwsc.h"
#include "src/pattern/cost.h"
#include "src/pattern/opt_cwsc.h"
#include "src/pattern/stats.h"
#include "src/table/builder.h"

namespace scwsc {
namespace ext {

enum class RepairPolicy { kRecompute, kRepair };

struct IncrementalOptions {
  std::size_t k = 10;
  double coverage_fraction = 0.3;
  RepairPolicy policy = RepairPolicy::kRepair;
  /// Deadline / cancellation / work-budget context forwarded into every
  /// embedded optimized-CWSC run (nullptr = unlimited). On a trip Append
  /// returns the interruption Status; the maintained solution stays the one
  /// from the last successful Append (possibly infeasible for the enlarged
  /// table — re-auditable via solution()).
  const RunContext* run_context = nullptr;
};

struct IncrementalStats {
  std::size_t batches = 0;
  std::size_t full_recomputes = 0;
  std::size_t repairs = 0;
  /// Batches absorbed with the existing solution still feasible.
  std::size_t no_op_batches = 0;
};

class IncrementalCwsc {
 public:
  /// Schema of the stream; `cost_fn` weights patterns over the measure.
  IncrementalCwsc(std::vector<std::string> attribute_names,
                  std::string measure_name, pattern::CostFunction cost_fn,
                  IncrementalOptions options);

  /// Appends a batch of records and restores the invariant that solution()
  /// is feasible for the current table. `rows[i]` are the attribute values
  /// of record i; `measures[i]` its measure.
  Status Append(const std::vector<std::vector<std::string>>& rows,
                const std::vector<double>& measures);

  /// The maintained solution, feasible for the current table; empty before
  /// the first Append.
  const pattern::PatternSolution& solution() const { return solution_; }

  /// The current table (rebuilt after the last Append); nullopt before the
  /// first Append.
  const std::optional<Table>& table() const { return table_; }

  std::size_t num_rows() const { return raw_rows_.size(); }

  const IncrementalStats& stats() const { return stats_; }

 private:
  Status Refresh();
  /// Recomputes covered rows, solution cost and coverage of the current
  /// pattern selection against table_. Returns number of covered rows.
  std::size_t ReevaluateSolution();
  Status FullRecompute();
  Status TryRepair();

  std::vector<std::string> attribute_names_;
  std::string measure_name_;
  pattern::CostFunction cost_fn_;
  IncrementalOptions options_;

  std::vector<std::vector<std::string>> raw_rows_;
  std::vector<double> raw_measures_;

  std::optional<Table> table_;
  pattern::PatternSolution solution_;
  std::vector<bool> covered_;  // by the current solution, over table_ rows
  IncrementalStats stats_;
};

}  // namespace ext
}  // namespace scwsc

#endif  // SCWSC_EXT_INCREMENTAL_H_
