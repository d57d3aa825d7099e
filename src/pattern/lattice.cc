#include "src/pattern/lattice.h"

#include <algorithm>
#include <unordered_map>

namespace scwsc {
namespace pattern {

std::vector<ChildGroup> GroupChildren(const Table& table,
                                      const Pattern& parent,
                                      const std::vector<RowId>& rows) {
  std::vector<ChildGroup> groups;
  for (std::size_t a = 0; a < parent.num_attributes(); ++a) {
    if (!parent.is_wildcard(a)) continue;
    std::unordered_map<ValueId, std::vector<RowId>> by_value;
    for (RowId r : rows) {
      by_value[table.value(r, a)].push_back(r);
    }
    const std::size_t first = groups.size();
    for (auto& [v, grows] : by_value) {
      groups.push_back(ChildGroup{a, v, std::move(grows)});
    }
    // Deterministic order within the attribute: by value id.
    std::sort(groups.begin() + static_cast<std::ptrdiff_t>(first),
              groups.end(),
              [](const ChildGroup& x, const ChildGroup& y) {
                return x.value < y.value;
              });
  }
  return groups;
}

ChildGrouper::ChildGrouper(const Table& table, const RunContext* run_context)
    : table_(table),
      ctx_(run_context != nullptr ? *run_context : RunContext::Unlimited()) {
  scratch_.resize(table.num_attributes());
  for (std::size_t a = 0; a < table.num_attributes(); ++a) {
    scratch_[a].assign(table.domain_size(a), 0);
  }
}

std::vector<ChildGroup> ChildGrouper::operator()(
    const Pattern& parent, const std::vector<RowId>& rows) {
  std::vector<ChildGroup> groups;
  // Tripped contexts get an empty expansion so descent loops unwind right
  // away; the caller's own Check() distinguishes this from a leaf.
  if (ctx_.Check() != TripKind::kNone) return groups;
  for (std::size_t a = 0; a < parent.num_attributes(); ++a) {
    if (!parent.is_wildcard(a)) continue;
    auto& slot = scratch_[a];
    const std::size_t first = groups.size();
    for (RowId r : rows) {
      const ValueId v = table_.value(r, a);
      std::uint32_t& g = slot[v];
      if (g == 0) {
        groups.push_back(ChildGroup{a, v, {}});
        g = static_cast<std::uint32_t>(groups.size() - first);
      }
      groups[first + g - 1].marginal_rows.push_back(r);
    }
    // Deterministic order within the attribute, then reset the scratch.
    std::sort(groups.begin() + static_cast<std::ptrdiff_t>(first),
              groups.end(),
              [](const ChildGroup& x, const ChildGroup& y) {
                return x.value < y.value;
              });
    for (std::size_t g = first; g < groups.size(); ++g) {
      slot[groups[g].value] = 0;
    }
    ctx_.ChargeNodes(groups.size() - first);
  }
  return groups;
}

}  // namespace pattern
}  // namespace scwsc
