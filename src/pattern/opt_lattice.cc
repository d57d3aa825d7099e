// The flat lattice step (ALL -> value) and the two entry points that
// descend it: RunOptimizedCwsc (Fig. 3) and RunOptimizedCmc (Fig. 4).

#include <optional>

#include "src/pattern/benefit_index.h"
#include "src/pattern/codec.h"
#include "src/pattern/descent.h"
#include "src/pattern/lattice.h"
#include "src/pattern/opt_cmc.h"
#include "src/pattern/opt_cwsc.h"

namespace scwsc {
namespace pattern {
namespace {

/// Keys for tables whose patterns pack into 64 bits (PatternCodec): maps,
/// sets and heap entries hold plain integers, and ties break by integer
/// order, which is not CanonicalLess.
class PackedKeys {
 public:
  using Key = std::uint64_t;
  using Hash = PackedKeyHash;

  explicit PackedKeys(const PatternCodec& codec) : codec_(codec) {}

  Key Root() const { return 0; }
  Key WithValue(Key key, std::size_t attr, ValueId v) const {
    return codec_.WithValue(key, attr, v);
  }
  Key WithWildcard(Key key, std::size_t attr) const {
    return codec_.WithWildcard(key, attr);
  }
  bool IsWildcard(Key key, std::size_t attr) const {
    return codec_.IsWildcard(key, attr);
  }
  static bool Less(Key a, Key b) { return a < b; }
  Pattern Decode(Key key) const { return codec_.Decode(key); }

 private:
  const PatternCodec& codec_;
};

/// Pattern keys ordered by CanonicalLess: opt-cwsc, whose selections must
/// equal Fig. 2 over the enumerated system, and tables too wide to pack.
class PatternKeys {
 public:
  using Key = Pattern;
  using Hash = PatternHash;

  explicit PatternKeys(std::size_t num_attributes)
      : num_attributes_(num_attributes) {}

  Key Root() const { return Pattern::AllWildcards(num_attributes_); }
  Key WithValue(const Key& key, std::size_t attr, ValueId v) const {
    return key.WithValue(attr, v);
  }
  Key WithWildcard(const Key& key, std::size_t attr) const {
    return key.WithWildcard(attr);
  }
  bool IsWildcard(const Key& key, std::size_t attr) const {
    return key.is_wildcard(attr);
  }
  static bool Less(const Key& a, const Key& b) { return CanonicalLess(a, b); }
  const Pattern& Decode(const Key& key) const { return key; }

 private:
  std::size_t num_attributes_;
};

/// The flat lattice step of descent.h: a child specializes one wildcard to
/// a value, grouped by ChildGrouper; Ben of a popped key comes from the
/// posting lists of a BenefitIndex, built on first use (only Fig. 4 asks).
template <typename Keys>
class FlatStep {
 public:
  using Key = typename Keys::Key;
  using KeyHash = typename Keys::Hash;
  using Group = ChildGroup;
  using Solution = PatternSolution;

  FlatStep(const Table& table, Keys keys, const RunContext* run_context)
      : table_(table), keys_(std::move(keys)), grouper_(table, run_context) {}

  Key Root() const { return keys_.Root(); }
  std::vector<ChildGroup> Children(const Key& q,
                                   const std::vector<RowId>& mben) {
    return grouper_(keys_.Decode(q), mben);
  }
  Key Child(const Key& q, const ChildGroup& g) const {
    return keys_.WithValue(q, g.attr, g.value);
  }
  bool IsWildcard(const Key& key, std::size_t attr) const {
    return keys_.IsWildcard(key, attr);
  }
  Key Parent(const Key& key, std::size_t attr) const {
    return keys_.WithWildcard(key, attr);
  }
  auto RowTest(const ChildGroup& g) const {
    return [column = table_.column(g.attr).data(), value = g.value](RowId r) {
      return column[r] == value;
    };
  }
  std::vector<RowId> Ben(const Key& key) {
    if (!index_) index_.emplace(table_);
    return index_->Ben(keys_.Decode(key));
  }
  static bool Less(const Key& a, const Key& b) { return Keys::Less(a, b); }
  Pattern Output(const Key& key) const { return keys_.Decode(key); }

 private:
  const Table& table_;
  Keys keys_;
  ChildGrouper grouper_;
  std::optional<BenefitIndex> index_;
};

}  // namespace

Result<PatternSolution> RunOptimizedCwsc(const Table& table,
                                         const CostFunction& cost_fn,
                                         const CwscOptions& options,
                                         PatternStats* stats) {
  FlatStep step(table, PatternKeys(table.num_attributes()),
                options.run_context);
  return DescendCwsc(step, table, cost_fn, options, stats,
                     {"opt_cwsc", "opt_cwsc.descend", "optimized cwsc",
                      "optimized CWSC"});
}

Result<PatternSolution> RunOptimizedCmc(const Table& table,
                                        const CostFunction& cost_fn,
                                        const CmcOptions& options,
                                        PatternStats* stats) {
  const DescentNames names{"opt_cmc", "opt_cmc.round", "optimized cmc",
                           "optimized CMC"};
  const PatternCodec codec(table);
  if (codec.fits()) {
    FlatStep step(table, PackedKeys(codec), options.run_context);
    return DescendCmc(step, table, cost_fn, options, stats, names);
  }
  FlatStep step(table, PatternKeys(table.num_attributes()),
                options.run_context);
  return DescendCmc(step, table, cost_fn, options, stats, names);
}

}  // namespace pattern
}  // namespace scwsc
