// Full pattern enumeration — the substrate of the *unoptimized* algorithms.
//
// Every distinct pattern that matches at least one record is a
// generalization of some record: replacing any subset of a record's j
// attribute values with ALL. Enumeration therefore walks each record's 2^j
// generalizations. Patterns matching nothing are never produced (they can
// never be selected). The result is sorted canonically so that pattern ids
// are stable across runs and across the opt/unopt pair.
//
// When a pattern key and a row id fit one 64-bit word together, each
// (record, generalization) becomes one word: the key above the row id,
// attribute 0 in the key's top field and ALL as each field's all-ones code,
// so that integer order on keys is CanonicalLess. A stable LSD radix sort on
// the key bits then groups each pattern's rows, already ascending because
// records are emitted in order, and each run of equal keys is one pattern.
// Wider keys fall back to a Pattern-keyed hash map and a comparison sort.

#ifndef SCWSC_PATTERN_ENUMERATE_H_
#define SCWSC_PATTERN_ENUMERATE_H_

#include <vector>

#include "src/common/result.h"
#include "src/common/run_context.h"
#include "src/pattern/pattern.h"
#include "src/table/table.h"

namespace scwsc {

namespace obs {
class TraceSession;
}  // namespace obs

namespace pattern {

struct EnumeratedPattern {
  Pattern pattern;
  std::vector<RowId> rows;  // Ben(pattern), sorted ascending
};

struct EnumerateOptions {
  /// Refuse to materialize more than this many distinct patterns
  /// (ResourceExhausted) — a guard against accidentally cubing a table with
  /// many attributes.
  std::size_t max_patterns = 200'000'000;
  /// Deadline / cancellation / work-budget context; nullptr = unlimited.
  /// Checked once per source row (each row expands up to 2^j
  /// generalizations) and charged one node expansion per distinct pattern
  /// found. A trip aborts the enumeration with the matching Status —
  /// a partially enumerated pattern collection is not a usable substrate,
  /// so no payload is attached.
  const RunContext* run_context = nullptr;
  /// Optional trace/metrics session (src/obs): the walk runs under an
  /// "enumerate" span and publishes the distinct-pattern count.
  obs::TraceSession* trace = nullptr;
};

/// Enumerates all non-empty patterns of `table`, sorted by CanonicalLess.
Result<std::vector<EnumeratedPattern>> EnumerateAllPatterns(
    const Table& table, const EnumerateOptions& options = {});

}  // namespace pattern
}  // namespace scwsc

#endif  // SCWSC_PATTERN_ENUMERATE_H_
