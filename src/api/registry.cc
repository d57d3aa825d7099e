#include "src/api/registry.h"

#include <cctype>
#include <utility>

#include "src/api/adapter_util.h"
#include "src/common/run_context.h"
#include "src/core/accuracy.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace api {
namespace {

/// Registered names are canonical lowercase; lookups fold the query so
/// "CWSC" and "Opt-CWSC" resolve, with the canonical spelling echoed in
/// errors and results.
std::string CanonicalName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Folds the per-solve SolveCounters snapshot (and the headline outcome)
/// into the session's metric registry under "solve.<name>.*", so the fixed
/// struct stays the typed API view while the registry generalizes it.
void RecordSolveMetrics(obs::MetricRegistry& metrics, const std::string& name,
                        const SolveResult& result) {
  const std::string p = "solve." + name + ".";
  metrics.counter(p + "solves").Increment();
  metrics.counter(p + "budget_rounds")
      .Increment(result.counters.budget_rounds);
  metrics.counter(p + "nodes").Increment(result.counters.nodes);
  metrics.counter(p + "sets_considered")
      .Increment(result.counters.sets_considered);
  metrics.counter(p + "cardinality_violation")
      .Increment(result.counters.cardinality_violation);
  metrics.counter(p + "feasible_trials")
      .Increment(result.counters.feasible_trials);
  metrics.gauge(p + "final_budget").Set(result.counters.final_budget);
  metrics.gauge(p + "lp_lower_bound").Set(result.counters.lp_lower_bound);
  metrics.gauge(p + "total_cost").Set(result.total_cost);
  metrics.gauge(p + "covered").Set(static_cast<double>(result.covered));
  metrics.gauge(p + "seconds").Set(result.seconds);
  if (result.certificate.has_value()) {
    metrics.gauge(p + "certified_ratio")
        .Set(result.certificate->certified_ratio);
  }
  // Latency distribution as a mergeable per-solver sketch (obs/sketch.h);
  // the '#'-family convention lets the telemetry pump aggregate an overall
  // "solve.seconds" quantile across solvers, which fixed-bucket histograms
  // could not offer.
  metrics.sketch("solve.seconds#" + name).Observe(result.seconds);
}

/// A certifying request's completed answer gains the accuracy certificate
/// (core/accuracy.h), computed under its own "certify" span; anything else
/// passes through. A RunContext trip while certifying returns the trip
/// status carrying the answer, uncertified, as its payload.
Result<SolveResult> Certify(const SolveRequest& request,
                            const RunContext* run_context,
                            Result<SolveResult> result) {
  if (!request.certify || !result.ok()) return result;
  obs::Span span(request.trace, "certify");
  SCWSC_ASSIGN_OR_RETURN(const SolveIndex* index,
                         request.instance->solve_index(request.trace));
  Result<double> bound =
      CoverageLowerBound(*index, request.coverage_fraction, run_context);
  if (!bound.ok()) {
    const Solution* greedy = bound.status().payload<Solution>();
    if (greedy == nullptr) return bound.status();
    // The answer is complete, but the trip still ends the request.
    result->provenance.trip = greedy->provenance.trip;
    result->provenance.sets_chosen = result->labels.size();
    result->provenance.coverage_reached = result->covered;
    return internal::Rewrap(bound.status(), std::move(result));
  }
  result->certificate =
      Certificate{*bound, CertifiedRatio(result->total_cost, *bound)};
  return result;
}

}  // namespace
namespace internal {

// Defined in the adapter translation units (solvers_*.cc). Referencing
// them from Global() forces the linker to keep those objects — and
// therefore their static registrars — even though nothing else references
// them: the classic static-library dead-stripping hazard of
// self-registration.
void LinkCoreSolvers();
void LinkLatticeSolvers();
void LinkLpSolvers();

}  // namespace internal

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = new SolverRegistry();
  static std::once_flag link_once;
  std::call_once(link_once, [] {
    internal::LinkCoreSolvers();
    internal::LinkLatticeSolvers();
    internal::LinkLpSolvers();
  });
  return *registry;
}

Status SolverRegistry::Register(SolverInfo info, Factory factory) {
  if (info.name.empty()) {
    return Status::InvalidArgument("solver registration: empty name");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("solver registration: null factory for '" +
                                   info.name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Registered names are the canonical lowercase spelling; lookups fold
  // queries to the same form.
  info.name = CanonicalName(info.name);
  // Take the key first: argument evaluation order is unspecified, so
  // emplace(info.name, {std::move(info), ...}) may read a moved-from name.
  std::string name = info.name;
  auto [it, inserted] = entries_.emplace(
      std::move(name), Entry{std::move(info), std::move(factory)});
  if (!inserted) {
    return Status::InvalidArgument("solver '" + it->first +
                                   "' is already registered");
  }
  return Status::OK();
}

const SolverInfo* SolverRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(CanonicalName(name));
  return it == entries_.end() ? nullptr : &it->second.info;
}

Result<std::unique_ptr<Solver>> SolverRegistry::Create(
    const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(CanonicalName(name));
    if (it == entries_.end()) {
      std::string known;
      for (const auto& [key, entry] : entries_) {
        if (!known.empty()) known += ", ";
        known += key;
      }
      return Status::NotFound("no solver named '" + name +
                              "'; registered solvers: " + known);
    }
    factory = it->second.factory;
  }
  auto solver = factory();
  if (solver == nullptr) {
    return Status::Internal("factory for solver '" + name +
                            "' returned null");
  }
  return solver;
}

std::vector<SolverInfo> SolverRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SolverInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry.info);
  return out;  // std::map iteration order is already sorted by name
}

Status SolverRegistry::CheckCapabilities(const SolverInfo& info,
                                         const InstanceSnapshot& instance) {
  if ((info.capabilities & kNeedsTable) != 0 && !instance.has_table()) {
    return Status::InvalidArgument(
        "solver '" + info.name +
        "' descends the pattern lattice of a table, but this instance wraps "
        "an explicit SetSystem; build the snapshot with "
        "InstanceSnapshot::FromTable or use a set-system solver such as "
        "'cwsc'");
  }
  if ((info.capabilities & kNeedsHierarchy) != 0 &&
      !instance.has_hierarchy()) {
    return Status::InvalidArgument(
        "solver '" + info.name +
        "' needs attribute hierarchies, but this instance has none; pass a "
        "TableHierarchy to InstanceSnapshot::FromTable (TableHierarchy::Flat "
        "reproduces the flat solvers) or use '" +
        (info.name == "hcmc" ? "opt-cmc" : "opt-cwsc") + "'");
  }
  return Status::OK();
}

Result<SolveResult> SolverRegistry::Solve(const std::string& name,
                                          const SolveRequest& request,
                                          const RunContext* run_context) const {
  if (request.instance == nullptr) {
    return Status::InvalidArgument("SolveRequest has no instance snapshot");
  }
  const SolverInfo* info = Find(name);
  if (info == nullptr) {
    return Create(name).status();  // NotFound listing the known names
  }
  SCWSC_RETURN_NOT_OK(CheckCapabilities(*info, *request.instance));
  if (request.certify && (info->capabilities & kNeedsSetSystem) == 0) {
    return Status::InvalidArgument(
        "solver '" + info->name +
        "' cannot certify: the accuracy certificate prices the SetSystem "
        "view, which this solver does not run over; drop certify or use a "
        "set-system solver such as 'cwsc'");
  }
  // Option keys are exact: a key the spec does not name is InvalidArgument
  // listing the accepted ones, so adapters read the bag as sent.
  SCWSC_RETURN_NOT_OK(request.options.Validate(info->options, info->name));

  // A request-carried deadline becomes an internal RunContext. Both a
  // deadline and an explicit context would mean two racing deadline
  // authorities, so that combination is rejected rather than guessed at.
  RunContext deadline_context;
  if (request.deadline.count() > 0) {
    if (run_context != nullptr) {
      return Status::InvalidArgument(
          "SolveRequest.deadline and an explicit RunContext were both "
          "supplied; set the deadline on the RunContext instead");
    }
    deadline_context.SetDeadline(request.deadline);
    run_context = &deadline_context;
  }

  SCWSC_ASSIGN_OR_RETURN(auto solver, Create(info->name));
  if (request.trace == nullptr) {
    return Certify(request, run_context, solver->Solve(request, run_context));
  }

  // Tracing on: one root span per dispatch; enumeration (lazy set-system
  // materialization) gets its own phase span so "enumerate vs. solve" in
  // the figures comes from a single clock source.
  obs::Span root(request.trace, "solve/" + info->name);
  if ((info->capabilities & kNeedsSetSystem) != 0 &&
      !request.instance->set_system_materialized()) {
    obs::Span materialize(request.trace, "materialize");
    (void)request.instance->set_system();  // errors resurface in the solver
  }
  Result<SolveResult> result =
      Certify(request, run_context, solver->Solve(request, run_context));
  const SolveResult* outcome = nullptr;
  if (result.ok()) {
    outcome = &*result;
  } else if (const auto* partial = result.status().payload<SolveResult>()) {
    outcome = partial;
    // A RunContext trip surrendered a partial: make the anytime staircase
    // visible in the trace.
    root.Event(std::string("trip/") +
               TripKindToString(partial->provenance.trip));
  }
  if (outcome != nullptr) {
    RecordSolveMetrics(request.trace->metrics(), info->name, *outcome);
  }
  return result;
}

SolverRegistrar::SolverRegistrar(SolverInfo info,
                                 SolverRegistry::Factory factory) {
  const Status status =
      SolverRegistry::Global().Register(std::move(info), std::move(factory));
  SCWSC_CHECK(status.ok(), "solver registration failed: %s",
              status.ToString().c_str());
}

}  // namespace api
}  // namespace scwsc
