// CWSC — Concise Weighted Set Cover (paper Fig. 2).
//
// Greedy partial weighted set cover with a per-iteration qualification
// threshold: with i picks remaining and rem elements still to cover, only
// sets with |MBen(s)| >= rem / i are considered, and among those the one with
// the highest marginal gain |MBen(s)| / Cost(s) is chosen. The algorithm
// returns at most k sets and always meets the coverage requirement when it
// returns a solution; it carries no cost guarantee (paper §V-B) but is the
// recommended solver in practice (paper §VI).
//
// RunCwsc evaluates marginals through a BenefitEngine and selects from one
// gain-ordered lazy (CELF) heap across all iterations; RunCwscLiteral
// (literal.h) is the line-by-line reference it must match.

#ifndef SCWSC_CORE_CWSC_H_
#define SCWSC_CORE_CWSC_H_

#include <algorithm>
#include <cstddef>

#include "src/common/result.h"
#include "src/core/solution.h"

namespace scwsc {

namespace obs {
class TraceSession;
}  // namespace obs

/// Fig. 2 line 06's qualification test |MBen(s)| >= rem / i, in exact
/// integers, shared by every CWSC variant (generic, literal, and the flat
/// and hierarchical lattice descents). It computes count · min(i, rem) >=
/// rem: for rem >= 1 that equals count · i >= rem (when i >= rem both
/// reduce to count >= 1), and since count, rem <= n < 2^32 the product
/// cannot wrap, whereas count · i would for a client k near 2^64.
inline bool MeetsCwscThreshold(std::size_t count, std::size_t i,
                               std::size_t rem) {
  return count * std::min(i, rem) >= rem;
}

struct CwscOptions {
  CwscOptions() = default;
  CwscOptions(std::size_t k_in, double coverage)
      : k(k_in), coverage_fraction(coverage) {}

  /// Maximum number of sets in the solution (k in the paper).
  std::size_t k = 10;
  /// Desired coverage fraction (ŝ in the paper); in [0, 1].
  double coverage_fraction = 0.3;
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  /// On a trip the solver returns the matching error Status carrying the
  /// partial solution built so far as a payload (see Provenance).
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs); nullptr = observability off.
  /// The solver's benefit engine records into the same session.
  obs::TraceSession* trace = nullptr;
};

/// Runs CWSC over an explicit set system. Returns:
///  - a Solution meeting the constraints, or
///  - Status::Infeasible when no qualified set exists in some iteration
///    (Fig. 2 line 07, "No solution"), or
///  - Status::InvalidArgument for out-of-domain options.
/// `stats` (optional) receives the candidate-evaluation tally.
Result<Solution> RunCwsc(const SetSystem& system, const CwscOptions& options,
                         ScanStats* stats = nullptr);

}  // namespace scwsc

#endif  // SCWSC_CORE_CWSC_H_
