// Literal reference implementations of Figs. 1 and 2.
//
// These follow the paper's pseudocode line by line: each budget round of
// CMC recomputes the marginal benefit of every set (Fig. 1 lines 04-05),
// every selection subtracts the chosen set's marginal benefit from every
// remaining set by an explicit scan (Fig. 1 lines 24-27, Fig. 2 lines
// 12-15), and each pick is a linear argmax over the whole collection.
//
// They exist for two reasons:
//  - they are the *unoptimized baseline* of the paper's Figs. 5-9 (the
//    tuned solvers in cwsc.h / cmc.h use the benefit engine's packed rows
//    and lazy heaps, which the 2015 baseline did not);
//  - they cross-validate the tuned engines: with identical tie-breaking
//    both must produce identical selections, which the test suite asserts.

#ifndef SCWSC_CORE_LITERAL_H_
#define SCWSC_CORE_LITERAL_H_

#include "src/common/result.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"

namespace scwsc {

/// Fig. 2 verbatim. Produces exactly the same Solution as RunCwsc.
/// `stats` (optional) receives the candidate-evaluation tally.
Result<Solution> RunCwscLiteral(const SetSystem& system,
                                const CwscOptions& options,
                                ScanStats* stats = nullptr);

/// Fig. 1 verbatim (plus the shared epsilon/l level generalizations).
/// Produces exactly the same CmcResult as RunCmc.
Result<CmcResult> RunCmcLiteral(const SetSystem& system,
                                const CmcOptions& options);

}  // namespace scwsc

#endif  // SCWSC_CORE_LITERAL_H_
