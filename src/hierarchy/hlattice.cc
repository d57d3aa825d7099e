// The hierarchy lattice step (ALL -> forest root -> child node -> ... ->
// leaf) and the two entry points that descend it: RunHierarchicalCwsc
// (Fig. 3) and RunHierarchicalCmc (Fig. 4).

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/hierarchy/hcmc.h"
#include "src/hierarchy/hcwsc.h"
#include "src/pattern/descent.h"

namespace scwsc {
namespace hierarchy {
namespace {

/// One prospective child of a popped pattern at one attribute: the node one
/// level below the pattern's constraint on the ancestor path of some
/// marginal row.
struct HChildGroup {
  std::size_t attr = 0;
  NodeId node = kNoNode;
  std::vector<RowId> marginal_rows;
};

/// Ben(p) by a direct matching scan: hierarchical postings would need a
/// per-node index, and a scan is O(n·j) once per popped pattern.
std::vector<RowId> BenOf(const Table& table, const TableHierarchy& hierarchy,
                         const HPattern& p) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (p.Matches(table, hierarchy, r)) rows.push_back(r);
  }
  return rows;
}

/// The hierarchy lattice step of src/pattern/descent.h. Marginal benefit is
/// anti-monotone along subtree containment, exactly as in the flat case.
class HierarchyStep {
 public:
  using Key = HPattern;
  using KeyHash = HPatternHash;
  using Group = HChildGroup;
  using Solution = HSolution;

  HierarchyStep(const Table& table, const TableHierarchy& hierarchy,
                const RunContext* run_context)
      : table_(table),
        hierarchy_(hierarchy),
        ctx_(run_context ? *run_context : RunContext::Unlimited()) {}

  HPattern Root() const {
    return HPattern::AllWildcards(table_.num_attributes());
  }

  /// Groups q's marginal rows by the one-step specialization that contains
  /// them, per attribute: below ALL that is the leaf's forest root; below
  /// an internal node its depth+1 ancestor; leaves have no children. Groups
  /// are ordered by (attribute, node id).
  std::vector<HChildGroup> Children(const HPattern& q,
                                    const std::vector<RowId>& mben) {
    std::vector<HChildGroup> groups;
    for (std::size_t a = 0; a < q.num_attributes(); ++a) {
      const AttributeHierarchy& h = hierarchy_.attribute(a);
      const NodeId pnode = q.node(a);
      if (pnode != kAllNode && h.is_leaf(pnode)) continue;
      const std::size_t child_depth =
          pnode == kAllNode ? 0 : h.depth(pnode) + 1;
      std::unordered_map<NodeId, std::vector<RowId>> by_node;
      for (RowId r : mben) {
        const NodeId leaf = table_.value(r, a);
        if (h.depth(leaf) < child_depth) continue;  // leaf sits above
        by_node[h.AncestorAtDepth(leaf, child_depth)].push_back(r);
      }
      const std::size_t first = groups.size();
      for (auto& [node, rows] : by_node) {
        groups.push_back(HChildGroup{a, node, std::move(rows)});
      }
      std::sort(groups.begin() + static_cast<std::ptrdiff_t>(first),
                groups.end(), [](const HChildGroup& x, const HChildGroup& y) {
                  return x.node < y.node;
                });
      // One lattice expansion per prospective child; a trip surfaces at the
      // descent's next Check.
      ctx_.ChargeNodes(groups.size() - first);
    }
    return groups;
  }

  HPattern Child(const HPattern& q, const HChildGroup& g) const {
    return q.WithNode(g.attr, g.node);
  }
  bool IsWildcard(const HPattern& p, std::size_t attr) const {
    return p.is_wildcard(attr);
  }
  HPattern Parent(const HPattern& p, std::size_t attr) const {
    return p.ParentAt(hierarchy_, attr);
  }
  auto RowTest(const HChildGroup& g) const {
    return [&h = hierarchy_.attribute(g.attr),
            column = table_.column(g.attr).data(), node = g.node](RowId r) {
      return h.IsAncestorOrSelf(node, column[r]);
    };
  }

  std::vector<RowId> Ben(const HPattern& p) const {
    return BenOf(table_, hierarchy_, p);
  }

  static bool Less(const HPattern& a, const HPattern& b) {
    return CanonicalLess(a, b);
  }
  const HPattern& Output(const HPattern& p) const { return p; }

 private:
  const Table& table_;
  const TableHierarchy& hierarchy_;
  const RunContext& ctx_;
};

Status CheckArity(const Table& table, const TableHierarchy& hierarchy) {
  if (hierarchy.num_attributes() != table.num_attributes()) {
    return Status::InvalidArgument("hierarchy arity does not match table");
  }
  return Status::OK();
}

}  // namespace

Result<HSolution> RunHierarchicalCwsc(const Table& table,
                                      const TableHierarchy& hierarchy,
                                      const pattern::CostFunction& cost_fn,
                                      const CwscOptions& options,
                                      pattern::PatternStats* stats) {
  SCWSC_RETURN_NOT_OK(CheckArity(table, hierarchy));
  HierarchyStep step(table, hierarchy, options.run_context);
  return pattern::DescendCwsc(step, table, cost_fn, options, stats,
                              {"hcwsc", "hcwsc.descend", "hierarchical cwsc",
                               "hierarchical CWSC"});
}

Result<HSolution> RunHierarchicalCmc(const Table& table,
                                     const TableHierarchy& hierarchy,
                                     const pattern::CostFunction& cost_fn,
                                     const CmcOptions& options,
                                     pattern::PatternStats* stats) {
  SCWSC_RETURN_NOT_OK(CheckArity(table, hierarchy));
  HierarchyStep step(table, hierarchy, options.run_context);
  return pattern::DescendCmc(step, table, cost_fn, options, stats,
                             {"hcmc", "hcmc.round", "hierarchical cmc",
                              "hierarchical CMC"});
}

}  // namespace hierarchy
}  // namespace scwsc
