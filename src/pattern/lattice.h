// Pattern-lattice navigation (paper §V-C).
//
// Children of p: replace one wildcard with a concrete value; parents of p:
// replace one constant with ALL. Both optimized algorithms rely on the
// anti-monotonicity Ben(child) ⊆ Ben(parent) — and hence MBen(child) ⊆
// MBen(parent) for any covered-set — to admit a child only after all its
// parents qualified.
//
// Children are enumerated *data-driven*: for a parent with marginal benefit
// rows R, the only children with non-zero marginal benefit take, in the
// specialized attribute, a value that occurs in R; grouping R by that
// attribute yields each such child together with its exact marginal benefit
// rows. Children that cover no uncovered record are therefore never
// materialized (they could never pass the benefit threshold anyway).

#ifndef SCWSC_PATTERN_LATTICE_H_
#define SCWSC_PATTERN_LATTICE_H_

#include <vector>

#include "src/common/run_context.h"
#include "src/pattern/pattern.h"

namespace scwsc {
namespace pattern {

/// One prospective child of `parent`: specialize attribute `attr` to
/// `value`; `marginal_rows` is exactly MBen(child) given that `rows` passed
/// to GroupChildren was MBen(parent).
struct ChildGroup {
  std::size_t attr = 0;
  ValueId value = 0;
  std::vector<RowId> marginal_rows;
};

/// Groups `rows` (the parent's marginal benefit set) by each wildcard
/// attribute of `parent`, producing every child with at least one row in
/// `rows`. Groups are ordered deterministically by (attribute, value id).
std::vector<ChildGroup> GroupChildren(const Table& table,
                                      const Pattern& parent,
                                      const std::vector<RowId>& rows);

/// Allocation-light repeated grouping: keeps per-attribute scratch arrays
/// sized by the active domains, so each GroupChildren call costs
/// O(|rows| * wildcards + groups) with no hashing. Results are identical
/// to the free function. Not thread-safe; one instance per solver run.
class ChildGrouper {
 public:
  /// `run_context` (nullptr = unlimited): each call charges one node
  /// expansion per produced group; once tripped, operator() returns an
  /// empty group vector immediately so descent loops unwind fast (callers
  /// must consult the context before trusting an empty result).
  explicit ChildGrouper(const Table& table,
                        const RunContext* run_context = nullptr);

  std::vector<ChildGroup> operator()(const Pattern& parent,
                                     const std::vector<RowId>& rows);

 private:
  const Table& table_;
  const RunContext& ctx_;
  // scratch_[attr][value] = index into the current call's group vector + 1
  // (0 = unassigned); entries touched per call are reset afterwards.
  std::vector<std::vector<std::uint32_t>> scratch_;
};

}  // namespace pattern
}  // namespace scwsc

#endif  // SCWSC_PATTERN_LATTICE_H_
