// Optimized CWSC over hierarchical patterns — Fig. 3 generalized to the
// deeper lattice induced by attribute hierarchies (paper §II's deferred
// extension).
//
// The same Fig. 3 descent as pattern::RunOptimizedCwsc (src/pattern/
// descent.h), over the hierarchy step of hlattice.cc: candidates start at
// the all-wildcards pattern and descend one specialization step at a time —
// ALL -> forest root -> child node -> ... -> leaf — with a child admitted
// only when all of its lattice parents qualify (marginal benefit is
// anti-monotone along subtree containment, exactly as in the flat case).
// With all-flat hierarchies this selects the flat Fig. 3 algorithm's
// patterns, which the tests verify against pattern::RunOptimizedCwsc.

#ifndef SCWSC_HIERARCHY_HCWSC_H_
#define SCWSC_HIERARCHY_HCWSC_H_

#include "src/common/result.h"
#include "src/core/cwsc.h"
#include "src/hierarchy/hpattern.h"
#include "src/pattern/cost.h"
#include "src/pattern/stats.h"

namespace scwsc {
namespace hierarchy {

struct HSolution {
  std::vector<HPattern> patterns;  // in selection order
  double total_cost = 0.0;
  std::size_t covered = 0;
  /// How the run ended (trip == kNone for a clean finish). Interrupted runs
  /// surface the best-so-far HSolution as the interruption Status payload.
  Provenance provenance;
};

/// Lattice-optimized CWSC under `hierarchy`. `stats` (optional) receives
/// the patterns-considered instrumentation.
Result<HSolution> RunHierarchicalCwsc(const Table& table,
                                      const TableHierarchy& hierarchy,
                                      const pattern::CostFunction& cost_fn,
                                      const CwscOptions& options,
                                      pattern::PatternStats* stats = nullptr);

}  // namespace hierarchy
}  // namespace scwsc

#endif  // SCWSC_HIERARCHY_HCWSC_H_
