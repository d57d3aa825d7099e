// Optimized CMC for patterned sets (paper Fig. 4, §V-C2).
//
// Per budget round, the search starts at the all-wildcards pattern and
// repeatedly takes the candidate with the highest marginal benefit. A
// candidate whose cost fits the budget and whose cost level still has
// allowance is selected; otherwise it is marked "visited" and its children
// become eligible (admitted once all their parents have been visited).
// Level structure and budget schedule are shared with the generic CMC
// (BuildCmcLevels), including the (1+ε)k merged-level variant and the
// generalized base 1+l. The descent is DescendCmc (descent.h) over the flat
// step of opt_lattice.cc: patterns are packed 64-bit keys whose integer
// order breaks ties, or Pattern keys under CanonicalLess when the table is
// too wide for PatternCodec.

#ifndef SCWSC_PATTERN_OPT_CMC_H_
#define SCWSC_PATTERN_OPT_CMC_H_

#include "src/common/result.h"
#include "src/core/cmc.h"
#include "src/pattern/cost.h"
#include "src/pattern/stats.h"

namespace scwsc {
namespace pattern {

/// Runs the lattice-optimized CMC directly over `table`. `stats`, when
/// non-null, receives the "patterns considered" instrumentation, summed
/// over budget rounds (Fig. 6).
Result<PatternSolution> RunOptimizedCmc(const Table& table,
                                        const CostFunction& cost_fn,
                                        const CmcOptions& options,
                                        PatternStats* stats = nullptr);

}  // namespace pattern
}  // namespace scwsc

#endif  // SCWSC_PATTERN_OPT_CMC_H_
