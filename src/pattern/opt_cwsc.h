// Optimized CWSC for patterned sets (paper Fig. 3, §V-C1).
//
// Instead of enumerating every pattern, the candidate set C holds exactly
// the patterns whose current marginal benefit meets the iteration's
// qualification threshold rem/i. C starts with the all-wildcards pattern
// and is maintained by descending the lattice: a child is admitted (and its
// benefit/cost computed) only when all of its parents are currently in C —
// sound because a child's marginal benefit never exceeds any parent's.
// Provided both break ties identically, the optimized algorithm selects
// exactly the same patterns as CWSC over the fully enumerated system; this
// library guarantees that by using one canonical pattern order everywhere
// (a property test re-verifies it on random tables). The descent is
// DescendCwsc (descent.h) over the flat step of opt_lattice.cc, with
// Pattern keys.

#ifndef SCWSC_PATTERN_OPT_CWSC_H_
#define SCWSC_PATTERN_OPT_CWSC_H_

#include "src/common/result.h"
#include "src/core/cwsc.h"
#include "src/pattern/cost.h"
#include "src/pattern/stats.h"

namespace scwsc {
namespace pattern {

/// Runs the lattice-optimized CWSC directly over `table`. `stats`, when
/// non-null, receives the "patterns considered" instrumentation (Fig. 6).
Result<PatternSolution> RunOptimizedCwsc(const Table& table,
                                         const CostFunction& cost_fn,
                                         const CwscOptions& options,
                                         PatternStats* stats = nullptr);

}  // namespace pattern
}  // namespace scwsc

#endif  // SCWSC_PATTERN_OPT_CWSC_H_
