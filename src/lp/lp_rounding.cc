#include "src/lp/lp_rounding.h"

#include <algorithm>
#include <cmath>

#include "src/common/bitset.h"
#include "src/common/rng.h"
#include "src/core/benefit_engine.h"
#include "src/core/greedy_state.h"
#include "src/core/solve_index.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace lp {

Result<LpRelaxation> SolveScwscRelaxation(const SetSystem& system,
                                          std::size_t k,
                                          double coverage_fraction,
                                          const LpOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (coverage_fraction < 0.0 || coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  const std::size_t m = system.num_sets();
  const std::size_t n = system.num_elements();
  const std::size_t target = SetSystem::CoverageTarget(coverage_fraction, n);
  if (target == 0) return LpRelaxation{};
  if (m == 0) return Status::Infeasible("no sets");

  // Variables: x_0..x_{m-1}, z_0..z_{n-1}.
  LpProblem problem;
  problem.num_variables = m + n;
  problem.objective.assign(m + n, 0.0);
  for (SetId s = 0; s < m; ++s) problem.objective[s] = system.set(s).cost;

  const auto inverted = system.BuildInvertedIndex();
  // z_e - Σ_{s ∋ e} x_s <= 0.
  for (ElementId e = 0; e < n; ++e) {
    Constraint con;
    con.coefficients.assign(m + n, 0.0);
    con.coefficients[m + e] = 1.0;
    for (SetId s : inverted[e]) con.coefficients[s] -= 1.0;
    con.relation = Relation::kLessEqual;
    con.rhs = 0.0;
    problem.constraints.push_back(std::move(con));
  }
  // z_e <= 1 and x_s <= 1.
  for (std::size_t v = 0; v < m + n; ++v) {
    Constraint con;
    con.coefficients.assign(m + n, 0.0);
    con.coefficients[v] = 1.0;
    con.relation = Relation::kLessEqual;
    con.rhs = 1.0;
    problem.constraints.push_back(std::move(con));
  }
  // Σ z_e >= target.
  {
    Constraint con;
    con.coefficients.assign(m + n, 0.0);
    for (ElementId e = 0; e < n; ++e) con.coefficients[m + e] = 1.0;
    con.relation = Relation::kGreaterEqual;
    con.rhs = static_cast<double>(target);
    problem.constraints.push_back(std::move(con));
  }
  // Σ x_s <= k.
  {
    Constraint con;
    con.coefficients.assign(m + n, 0.0);
    for (SetId s = 0; s < m; ++s) con.coefficients[s] = 1.0;
    con.relation = Relation::kLessEqual;
    con.rhs = static_cast<double>(k);
    problem.constraints.push_back(std::move(con));
  }

  SCWSC_ASSIGN_OR_RETURN(LpSolution lp, SolveLp(problem, options));
  LpRelaxation relaxation;
  relaxation.lower_bound = lp.objective;
  relaxation.x.assign(lp.x.begin(), lp.x.begin() + static_cast<std::ptrdiff_t>(m));
  return relaxation;
}

Result<LpRoundingResult> SolveByLpRounding(const SolveIndex& index,
                                           const LpScwscOptions& options) {
  const SetSystem& system = index.system();
  const std::size_t n = system.num_elements();
  const std::size_t target =
      SetSystem::CoverageTarget(options.coverage_fraction, n);
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  LpOptions lp_options = options.lp;
  if (lp_options.run_context == nullptr) {
    lp_options.run_context = options.run_context;
  }
  if (lp_options.trace == nullptr) lp_options.trace = options.trace;
  LpRelaxation relaxation;
  {
    obs::Span relax_span(options.trace, "lp.relax");
    SCWSC_ASSIGN_OR_RETURN(
        relaxation,
        SolveScwscRelaxation(system, options.k, options.coverage_fraction,
                             lp_options));
  }
  LpRoundingResult result;
  result.lp_lower_bound = relaxation.lower_bound;
  if (target == 0) return result;

  const double alpha =
      options.alpha > 0.0
          ? options.alpha
          : std::log(static_cast<double>(std::max<std::size_t>(n, 2))) + 1.0;

  Rng rng(options.seed);
  bool have_best = false;
  Solution best;

  // Once the relaxation is solved, every later stage can surrender the best
  // rounded solution found so far (possibly none) as the Status payload.
  auto interrupted = [&](TripKind trip) -> Status {
    LpRoundingResult partial = result;
    if (have_best) partial.solution = best;
    Provenance& prov = partial.solution.provenance;
    prov.trip = trip;
    prov.sets_chosen = partial.solution.sets.size();
    prov.coverage_reached = partial.solution.covered;
    partial.cardinality_violation =
        partial.solution.sets.size() > options.k
            ? partial.solution.sets.size() - options.k
            : 0;
    return TripStatus(trip, "lp rounding").WithPayload(std::move(partial));
  };

  auto evaluate = [&](const std::vector<SetId>& picked) {
    DynamicBitset covered(n);
    double cost = 0.0;
    for (SetId s : picked) {
      cost += system.set(s).cost;
      for (ElementId e : system.set(s).elements) covered.set(e);
    }
    return std::make_pair(covered.count(), cost);
  };

  obs::Span round_span(options.trace, "lp.round");
  for (std::size_t t = 0; t < options.trials; ++t) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip);
    }
    std::vector<SetId> picked;
    for (SetId s = 0; s < system.num_sets(); ++s) {
      const double p = std::min(1.0, alpha * relaxation.x[s]);
      if (p > 0.0 && rng.NextBool(p)) picked.push_back(s);
    }
    result.sets_considered += system.num_sets();
    auto [covered, cost] = evaluate(picked);
    if (covered < target) continue;
    ++result.feasible_trials;
    if (!have_best || cost < best.total_cost) {
      best.sets = std::move(picked);
      best.total_cost = cost;
      best.covered = covered;
      have_best = true;
    }
  }

  round_span.End();
  if (options.trace != nullptr) {
    options.trace->metrics().counter("lp.trials").Increment(options.trials);
    options.trace->metrics()
        .counter("lp.feasible_trials")
        .Increment(result.feasible_trials);
  }

  if (!have_best) {
    // Greedy repair: densify the best fractional support by gain until the
    // target is met (falls back to the whole system if the support is too
    // thin).
    obs::Span repair_span(options.trace, "lp.repair");
    // The engine gets no run context, so the repair's recounts are not
    // charged to a recount budget; deadlines and cancellation still reach
    // the loop through its Check().
    BenefitEngine state(index);
    LazySelector selector(index.gain_heap(), result.sets_considered);
    std::size_t rem = target;
    Solution repaired;
    while (rem > 0) {
      if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
        repaired.covered = state.covered_count();
        best = std::move(repaired);
        have_best = true;
        return interrupted(trip);
      }
      auto key = selector.Pop([&](SetId s) -> std::optional<SelectionKey> {
        const std::size_t count = state.MarginalCount(s);
        if (count == 0) return std::nullopt;
        return MakeGainKey(count, system.set(s).cost, s);
      });
      if (!key.has_value()) {
        return Status::Infeasible("LP rounding: instance is not coverable");
      }
      const std::size_t newly = state.Select(key->id);
      repaired.sets.push_back(key->id);
      repaired.total_cost += system.set(key->id).cost;
      rem = newly >= rem ? 0 : rem - newly;
    }
    repaired.covered = state.covered_count();
    best = std::move(repaired);
  }

  result.solution = std::move(best);
  result.cardinality_violation =
      result.solution.sets.size() > options.k
          ? result.solution.sets.size() - options.k
          : 0;
  return result;
}

Result<LpRoundingResult> SolveByLpRounding(const SetSystem& system,
                                           const LpScwscOptions& options) {
  return SolveByLpRounding(SolveIndex(system), options);
}

}  // namespace lp
}  // namespace scwsc
