// Inputs of the benchmark's workloads (the instances, the request streams
// and the deltas) plus the per-response contract check. Instances come from
// fixed seeds; request streams and deltas from the workload seed. The
// serving stack only ever sees the generated inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "perfbench/session.h"
#include "src/api/delta.h"
#include "src/common/rng.h"
#include "src/core/set_system.h"
#include "src/serve/json.h"
#include "src/table/table.h"

namespace perfbench {

/// The beacon + carrier interval system over {0, ..., n-1}: one universe
/// set (keeps every request feasible), 400 carrier intervals of n/350
/// elements at cost 10 and 3,000 beacon intervals of n/3500 elements at
/// cost 0.4. Beacons head CWSC's lazy heap but sit below its |MBen|·i >=
/// rem threshold, so CWSC re-examines them every round; greedy-wsc and CMC
/// do not.
scwsc::SetSystem CarrierSystem(std::size_t n, std::uint64_t seed);

/// The synthetic LBL connection trace (five attributes plus a duration
/// measure) with `rows` rows.
scwsc::Table Trace(std::size_t rows, std::uint64_t seed);

/// Send offsets, in seconds from the start of an open-loop phase, of
/// `count` arrivals evenly spaced at `rate` per second, shifted by a seeded
/// fraction of one gap. Even spacing, not Poisson: a run affords a few dozen
/// solves of 0.1-1.4 s, too few for the quantiles of Poisson bursts to
/// repeat from run to run.
std::vector<double> EvenOffsets(std::size_t count, double rate,
                                scwsc::Rng& rng);

/// A read mix: solvers in equal shares, k and coverage drawn per request.
struct QueryMix {
  std::vector<std::string> solvers;
  std::size_t k_lo = 0, k_hi = 0;
  double coverage_lo = 0.0, coverage_hi = 0.0;
};

using QueryKey = std::tuple<std::string, std::size_t, double>;

/// `count` queries whose keys are distinct from each other and from `used`
/// (which receives them). Solvers share the count equally and take turns;
/// each solver's k and coverage sample their ranges evenly (coverage
/// rounded to 1e-4) in seeded order.
std::vector<Query> DrawQueries(const QueryMix& mix, std::size_t count,
                               scwsc::Rng& rng, std::set<QueryKey>* used);

/// The set-system versions a run publishes, replayed in the benchmark so
/// any version can be rebuilt from scratch. Version 0 is the base system;
/// each delta appends one localized set and every second one also removes
/// a set (which renumbers the ids after it).
class SetSystemLog {
 public:
  explicit SetSystemLog(const scwsc::SetSystem& base);

  /// Draws the next delta against the latest version and records it.
  scwsc::api::SnapshotDelta NextDelta(scwsc::Rng& rng);

  /// The delta's wire form ({"add_sets": ..., "remove_sets": ...}).
  static scwsc::serve::JsonObject ToWire(
      const scwsc::api::SnapshotDelta& delta);

  /// A from-scratch copy of `version` (0 = base).
  scwsc::SetSystem Build(std::size_t version) const;

  std::size_t latest() const { return versions_.size() - 1; }
  /// Cost of every set label ever published (labels are unique).
  const std::map<std::string, double>& label_costs() const {
    return label_costs_;
  }

 private:
  const scwsc::SetSystem& base_;
  std::vector<scwsc::WeightedSet> added_;
  // Per version, the sets in id order: < base size indexes the base
  // system, the rest index added_.
  std::vector<std::vector<std::size_t>> versions_;
  std::map<std::string, double> label_costs_;
};

/// Checks one solve response against the request's contract over a
/// universe of `n` elements: the selection size bound and coverage target
/// of the solver, 0 <= covered <= n, num_sets = |selection| and a finite
/// total_cost that, when `label_costs` is given, equals the selection's
/// summed cost. Returns "" when the response honours it, else the reason.
std::string CheckContract(const Query& query,
                          const scwsc::serve::JsonValue& result,
                          std::size_t n,
                          const std::map<std::string, double>* label_costs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
