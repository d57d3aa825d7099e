// Optimized CMC over hierarchical patterns — Fig. 4 generalized to the
// hierarchy lattice, completing the §II extension for both of the paper's
// algorithms. It is the same Fig. 4 descent as pattern::RunOptimizedCmc
// (src/pattern/descent.h) over the hierarchy step of hlattice.cc, so it
// shares the budget schedule and level structure with the generic CMC
// (BuildCmcLevels), the lazy marginal refresh, pop-time cost computation,
// and the round-feasibility precheck (hierarchical patterns also cover
// whole duplicate groups, so the bound carries over unchanged). Ties break
// by CanonicalLess, where the flat solver's packed keys use integer order.

#ifndef SCWSC_HIERARCHY_HCMC_H_
#define SCWSC_HIERARCHY_HCMC_H_

#include "src/common/result.h"
#include "src/core/cmc.h"
#include "src/hierarchy/hcwsc.h"

namespace scwsc {
namespace hierarchy {

/// Lattice-optimized CMC under `hierarchy`. Coverage/size guarantees match
/// the generic CMC (Theorems 4/5) since the hierarchical patterns form just
/// another set system containing the all-wildcards universe set.
Result<HSolution> RunHierarchicalCmc(const Table& table,
                                     const TableHierarchy& hierarchy,
                                     const pattern::CostFunction& cost_fn,
                                     const CmcOptions& options,
                                     pattern::PatternStats* stats = nullptr);

}  // namespace hierarchy
}  // namespace scwsc

#endif  // SCWSC_HIERARCHY_HCMC_H_
