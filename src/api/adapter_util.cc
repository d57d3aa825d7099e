#include "src/api/adapter_util.h"

#include <cmath>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "src/common/bitset.h"
#include "src/obs/trace.h"
#include "src/pattern/pattern_system.h"

namespace scwsc {
namespace api {
namespace internal {
namespace {

/// The shared bookkeeping-consistency rule of AuditSolution: exact coverage
/// match, cost match up to relative rounding noise.
bool CostsMatch(double recomputed, double claimed) {
  return std::abs(recomputed - claimed) <=
         1e-9 * std::max(1.0, std::abs(recomputed));
}

}  // namespace

Result<SolveResult> FinishSetBacked(const SolveRequest& request,
                                    Solution solution, double seconds,
                                    SolveContract contract,
                                    SolveCounters counters) {
  obs::Span finish_span(request.trace, "finish");
  SCWSC_ASSIGN_OR_RETURN(const SetSystem* system,
                         request.instance->set_system());
  SolveResult out;
  out.total_cost = solution.total_cost;
  out.covered = solution.covered;
  out.provenance = solution.provenance;
  SCWSC_ASSIGN_OR_RETURN(out.audit, AuditSolution(*system, solution));

  const pattern::PatternSystem* patterns = nullptr;
  if (request.instance->has_table()) {
    SCWSC_ASSIGN_OR_RETURN(patterns, request.instance->pattern_system());
  }
  out.labels.reserve(solution.sets.size());
  for (SetId id : solution.sets) {
    if (patterns != nullptr) {
      out.patterns.push_back(patterns->pattern(id));
      out.labels.push_back(patterns->pattern(id).ToString(patterns->table()));
    } else {
      const WeightedSet& s = system->set(id);
      out.labels.push_back(s.label.empty() ? "S" + std::to_string(id)
                                           : s.label);
    }
  }
  out.solution = std::move(solution);
  out.contract = contract;
  out.counters = counters;
  out.seconds = seconds;
  return out;
}

template <typename LatticeSolution>
Result<SolveResult> FinishLatticeBacked(const SolveRequest& request,
                                        LatticeSolution solution,
                                        double seconds, SolveContract contract,
                                        SolveCounters counters) {
  using P = typename decltype(solution.patterns)::value_type;
  constexpr bool kFlat = std::is_same_v<P, pattern::Pattern>;
  using Hash =
      std::conditional_t<kFlat, pattern::PatternHash, hierarchy::HPatternHash>;
  obs::Span finish_span(request.trace, "finish");
  const Table& table = request.instance->table();
  const pattern::CostFunction& cost_fn = request.instance->cost_fn();
  // Hierarchical patterns match and print through the instance's
  // hierarchies, flat ones through the table alone.
  auto matches = [&](const P& p, RowId r) {
    if constexpr (kFlat) {
      return p.Matches(table, r);
    } else {
      return p.Matches(table, request.instance->hierarchy(), r);
    }
  };
  auto label = [&](const P& p) {
    if constexpr (kFlat) {
      return p.ToString(table);
    } else {
      return p.ToString(table, request.instance->hierarchy());
    }
  };

  SolveResult out;
  out.total_cost = solution.total_cost;
  out.covered = solution.covered;
  out.provenance = solution.provenance;

  DynamicBitset covered(table.num_rows());
  double recomputed_cost = 0.0;
  std::unordered_set<P, Hash> seen;
  out.labels.reserve(solution.patterns.size());
  for (const P& p : solution.patterns) {
    if (!seen.insert(p).second) {
      return Status::InvalidArgument("solution contains duplicate pattern " +
                                     label(p));
    }
    std::vector<RowId> rows;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (matches(p, r)) {
        rows.push_back(r);
        covered.set(r);
      }
    }
    recomputed_cost += cost_fn.Compute(table, rows);
    out.labels.push_back(label(p));
  }
  out.audit.num_sets = solution.patterns.size();
  out.audit.total_cost = recomputed_cost;
  out.audit.covered = covered.count();
  out.audit.bookkeeping_consistent =
      out.audit.covered == solution.covered &&
      CostsMatch(recomputed_cost, solution.total_cost);

  // Mirror the bookkeeping into the uniform Solution shell (sets stays
  // empty: lattice solvers have no SetIds).
  out.solution.total_cost = solution.total_cost;
  out.solution.covered = solution.covered;
  out.solution.provenance = solution.provenance;
  if constexpr (kFlat) out.patterns = std::move(solution.patterns);
  out.contract = contract;
  out.counters = counters;
  out.seconds = seconds;
  return out;
}

template Result<SolveResult> FinishLatticeBacked(const SolveRequest&,
                                                 pattern::PatternSolution,
                                                 double, SolveContract,
                                                 SolveCounters);
template Result<SolveResult> FinishLatticeBacked(const SolveRequest&,
                                                 hierarchy::HSolution, double,
                                                 SolveContract, SolveCounters);

Status Rewrap(const Status& status, Result<SolveResult> finished) {
  if (!finished.ok()) return status;
  return Status(status.code(), std::string(status.message()))
      .WithPayload(std::move(finished).value());
}

Result<CmcOptions> CmcOptionsFromRequest(const SolveRequest& request,
                                         const RunContext* run_context) {
  CmcOptions options;
  options.k = request.k;
  options.coverage_fraction = request.coverage_fraction;
  SCWSC_ASSIGN_OR_RETURN(options.b, request.options.GetDouble("b", options.b));
  SCWSC_ASSIGN_OR_RETURN(options.epsilon,
                         request.options.GetDouble("epsilon", options.epsilon));
  SCWSC_ASSIGN_OR_RETURN(std::uint64_t l,
                         request.options.GetU64("l", options.l));
  options.l = static_cast<unsigned>(l);
  SCWSC_ASSIGN_OR_RETURN(bool strict,
                         request.options.GetBool("strict", false));
  options.relax_coverage = !strict;
  SCWSC_ASSIGN_OR_RETURN(
      options.max_budget_rounds,
      request.options.GetU64("max_budget_rounds", options.max_budget_rounds));
  options.run_context = run_context;
  return options;
}

OptionsSpec CmcOptionsSpec() {
  return {
      {"b", OptionType::kDouble, "1", "initial budget multiplier", false},
      {"epsilon", OptionType::kDouble, "0",
       "budget relaxation epsilon (>=0 widens the selectable-set bound)",
       false},
      {"l", OptionType::kU64, "1", "budget doubling exponent base", false},
      {"strict", OptionType::kBool, "false",
       "require the unrelaxed coverage target (no (1-1/e) relaxation)", false},
      {"max_budget_rounds", OptionType::kU64, "256",
       "cap on budget-doubling rounds before giving up", false},
  };
}

SolveContract CwscContract(const SolveRequest& request,
                           std::size_t num_elements) {
  return SolveContract{request.k,
                       SetSystem::CoverageTarget(request.coverage_fraction,
                                                 num_elements)};
}

SolveContract CmcContract(const CmcOptions& options,
                          std::size_t num_elements) {
  SolveContract contract;
  contract.max_sets = CmcMaxSelectable(options.k, options.epsilon, options.l);
  contract.coverage_target = CmcCoverageTarget(
      options.coverage_fraction, num_elements, options.relax_coverage);
  return contract;
}

}  // namespace internal
}  // namespace api
}  // namespace scwsc
