// The one request/response seam of the library: every algorithm — core
// CWSC/CMC and their literal references, the three baselines, the exact
// branch-and-bound, LP rounding, the lattice-optimized pattern solvers and
// the hierarchical variants — is invocable through the polymorphic Solver
// interface with a typed SolveRequest and SolveResult. Frontends (CLI,
// bench harness, tests, a future RPC server) talk to this seam only; they
// never wire up an algorithm by hand.
//
// Solvers are looked up by name in the SolverRegistry (registry.h), which
// also carries capability flags so a frontend can report *why* a solver
// cannot run on a given instance before calling it.

#ifndef SCWSC_API_SOLVER_H_
#define SCWSC_API_SOLVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/instance.h"
#include "src/common/result.h"
#include "src/common/run_context.h"
#include "src/core/solution.h"
#include "src/pattern/pattern.h"

namespace scwsc {
namespace obs {
class TraceSession;
}  // namespace obs
namespace api {

// --- capabilities ---------------------------------------------------------

/// What a solver consumes / guarantees; used for capability-aware errors
/// ("hcwsc needs a hierarchy the input lacks") and for frontend listings.
enum SolverCapability : unsigned {
  /// Consumes the generic SetSystem view. On a table-only instance this
  /// materializes the full pattern enumeration (once, shared).
  kNeedsSetSystem = 1u << 0,
  /// Consumes the patterned Table directly (lattice solvers); cannot run on
  /// an instance built from an explicit SetSystem.
  kNeedsTable = 1u << 1,
  /// Additionally needs attribute hierarchies on the instance.
  kNeedsHierarchy = 1u << 2,
  /// Surrenders a best-so-far partial SolveResult as the Status payload
  /// when a RunContext trips.
  kSupportsAnytime = 1u << 3,
  /// Result is provably optimal (not a heuristic).
  kExact = 1u << 4,
};

/// "set-system,anytime" — stable comma-separated listing for --list-solvers.
std::string CapabilitiesToString(unsigned capabilities);

// --- options spec ---------------------------------------------------------

/// Value type of one solver option; used to render defaults in
/// --list-solvers and to round-trip them through the CLI parsing path.
enum class OptionType { kDouble, kU64, kBool, kString };

/// "double" / "u64" / "bool" / "string".
std::string_view OptionTypeToString(OptionType type);

/// One accepted option of a solver: its snake_case key, its type, the
/// rendered default and a one-line help string. Every solver registers
/// exactly one OptionsSpec; the registry validates incoming bags against
/// it, the CLI prints it, and the round-trip property test re-parses its
/// defaults.
struct OptionSpec {
  std::string name;  // the one accepted spelling, e.g. "max_budget_rounds"
  OptionType type = OptionType::kString;
  /// Rendered default, bit-identical under the matching OptionsBag getter
  /// ("256", "false", "gain"). Empty for required options.
  std::string default_value;
  std::string help;  // one line for --list-solvers
  /// True when the option must be supplied (no usable default); the
  /// registry rejects a request missing it before instantiating the solver.
  bool required = false;
};

using OptionsSpec = std::vector<OptionSpec>;

// --- options bag ----------------------------------------------------------

/// Per-algorithm options as string key/value pairs, so one CLI flag
/// (--opt key=value) and one RPC field can parameterize any solver. Typed
/// getters parse on access; the registry validates every bag against the
/// solver's OptionsSpec first, so a typo ("espilon=2") is an
/// InvalidArgument naming the accepted keys, not a silent default.
class OptionsBag {
 public:
  OptionsBag() = default;

  /// Parses "key=value" items (the CLI's repeated --opt flag).
  static Result<OptionsBag> Parse(const std::vector<std::string>& items);

  OptionsBag& Set(std::string key, std::string value);

  bool Has(const std::string& key) const { return kv_.count(key) != 0; }
  bool empty() const { return kv_.empty(); }

  /// Typed lookup with a default for missing keys; parse failures are
  /// InvalidArgument naming the key.
  Result<double> GetDouble(const std::string& key, double fallback) const;
  Result<std::uint64_t> GetU64(const std::string& key,
                               std::uint64_t fallback) const;
  Result<bool> GetBool(const std::string& key, bool fallback) const;
  Result<std::string> GetString(const std::string& key,
                                std::string fallback) const;

  /// InvalidArgument when a key is not, byte for byte, the name of a `spec`
  /// entry (the message lists the accepted keys), or when a `required`
  /// option is missing. `solver_name` is the solver spelling echoed in
  /// errors. Keys are never rewritten, so the bag a caller sends is the bag
  /// the solver reads and the result cache keys on.
  Status Validate(const OptionsSpec& spec,
                  const std::string& solver_name) const;

  /// "k1=v1,k2=v2" over the (sorted) items — the serialization the serve
  /// layer's ResultCache keys memoized solves by.
  std::string CanonicalString() const;

  const std::map<std::string, std::string>& items() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

// --- request / response ---------------------------------------------------

/// One solve call. The instance handle is shared, never copied; k and ŝ are
/// the universal SCWSC constraints; everything algorithm-specific rides in
/// the options bag (see each solver's OptionsSpec in the registry).
struct SolveRequest {
  InstancePtr instance;
  std::size_t k = 10;
  double coverage_fraction = 0.3;
  OptionsBag options;

  /// Optional tracing/metrics sink (src/obs). nullptr = observability off;
  /// every instrumentation point then costs one pointer branch. When set,
  /// the registry opens a root span "solve/<name>" and each adapter and
  /// algorithm records phase child spans and metrics into the session.
  obs::TraceSession* trace = nullptr;

  /// Wall-clock budget for this solve; zero = unlimited. The registry
  /// applies it through an internal RunContext when the caller passes no
  /// explicit context, and rejects the ambiguous combination (non-zero
  /// deadline AND an explicit RunContext) as InvalidArgument. The serve
  /// scheduler instead moves it onto its own per-job context.
  std::chrono::milliseconds deadline{0};

  /// Frontend tag (batch job name, bench arm) carried into scheduler
  /// output and batch reports; never interpreted by solvers.
  std::string label;

  /// Multi-tenant serving identity: which tenant this request is billed to.
  /// Empty means the anonymous "default" tenant. The serve scheduler uses it
  /// for admission quotas and weighted-fair dequeue, and stamps it into the
  /// per-tenant serve.tenant.* counters, the serve.tenant.latency_seconds
  /// sketch family and the tenant/ event on the job's serve.run span. Never
  /// interpreted by solvers.
  std::string tenant;

  /// Ask for the accuracy certificate (SolveResult::certificate). Only
  /// solvers that run over the SetSystem view (kNeedsSetSystem) can certify;
  /// the registry rejects the request on any other solver. Off by default:
  /// the certificate costs a greedy full cover of the instance after the
  /// solve. The serve layer's result cache keys on it.
  bool certify = false;

  class Builder;
};

/// Fluent construction of a SolveRequest, replacing the hand-rolled
/// field-by-field setup the CLI, bench harness and tests used to duplicate:
///
///   SCWSC_ASSIGN_OR_RETURN(
///       auto request, api::SolveRequest::Builder(instance)
///                         .WithK(10).WithCoverage(0.3)
///                         .WithOption("b", "2")
///                         .WithDeadline(std::chrono::milliseconds(50))
///                         .Build());
///
/// Build() surfaces the first recorded error (malformed "key=value" item).
class SolveRequest::Builder {
 public:
  explicit Builder(InstancePtr instance) {
    request_.instance = std::move(instance);
  }

  Builder& WithK(std::size_t k) {
    request_.k = k;
    return *this;
  }
  Builder& WithCoverage(double fraction) {
    request_.coverage_fraction = fraction;
    return *this;
  }
  Builder& WithOption(std::string key, std::string value) {
    request_.options.Set(std::move(key), std::move(value));
    return *this;
  }
  /// Adds parsed "key=value" items (the CLI's repeated --opt flag); a
  /// malformed item is reported by Build().
  Builder& WithOptions(const std::vector<std::string>& items);
  Builder& WithDeadline(std::chrono::milliseconds deadline) {
    request_.deadline = deadline;
    return *this;
  }
  Builder& WithTrace(obs::TraceSession* trace) {
    request_.trace = trace;
    return *this;
  }
  Builder& WithLabel(std::string label) {
    request_.label = std::move(label);
    return *this;
  }
  Builder& WithTenant(std::string tenant) {
    request_.tenant = std::move(tenant);
    return *this;
  }
  Builder& WithCertificate(bool certify = true) {
    request_.certify = certify;
    return *this;
  }

  /// The assembled request, or the first error recorded by a With* call.
  Result<SolveRequest> Build() const;

 private:
  SolveRequest request_;
  Status deferred_;  // first WithOptions parse error; OK when clean
};

/// The constraint envelope this particular run promised: |S| <= max_sets
/// and covered >= coverage_target. Filled by the adapter from its
/// algorithm's contract (k for CWSC, CmcMaxSelectable for CMC, the relaxed
/// (1-1/e)·ŝ·n target when CMC relaxes coverage, 0 for baselines that
/// guarantee nothing on that axis) so callers and tests can audit any
/// solver without knowing which algorithm ran.
struct SolveContract {
  std::size_t max_sets = 0;
  std::size_t coverage_target = 0;
};

/// Algorithm-specific instrumentation, zero where not applicable.
struct SolveCounters {
  std::size_t budget_rounds = 0;       // CMC family
  double final_budget = 0.0;           // CMC family
  std::uint64_t nodes = 0;             // exact B&B
  std::size_t sets_considered = 0;     // candidate evaluations / Fig. 6
  double lp_lower_bound = 0.0;         // LP rounding
  std::size_t cardinality_violation = 0;  // LP rounding (§III caveat)
  std::size_t feasible_trials = 0;     // LP rounding
};

/// Instance-specific accuracy certificate of one answer, after Prolubnikov
/// (arXiv 1811.04037); see core/accuracy.h for the dual-fitting argument.
struct Certificate {
  /// A lower bound on the cost of every selection, of any size, that covers
  /// at least ⌈ŝn⌉ elements: so on the optimum too.
  double lower_bound = 0.0;
  /// total_cost / lower_bound (CertifiedRatio): >= 1 whenever the answer
  /// covers ⌈ŝn⌉ elements, below 1 only for an answer that covers fewer
  /// (CMC's relaxed target allows that); +infinity when the bound is 0 and
  /// the cost positive.
  double certified_ratio = 0.0;
};

/// The uniform response. `solution.sets` carries SetIds only for solvers
/// that ran over the SetSystem view; `patterns` only for flat-pattern
/// solvers; `labels` is always filled (one printable name per selection)
/// so frontends can render any solver's output identically.
struct SolveResult {
  Solution solution;
  std::vector<std::string> labels;
  std::vector<pattern::Pattern> patterns;

  double total_cost = 0.0;
  std::size_t covered = 0;
  Provenance provenance;

  /// Independently recomputed cost/coverage (against the SetSystem for
  /// set-backed runs, by re-matching patterns against the table
  /// otherwise). bookkeeping_consistent is a hard invariant.
  SolutionAudit audit;

  SolveContract contract;
  SolveCounters counters;

  /// Wall-clock seconds inside the underlying algorithm (excludes snapshot
  /// materialization and audit).
  double seconds = 0.0;

  /// The accuracy certificate (core/accuracy.h), present only when the
  /// request set `certify` and the solve completed; interruption payloads
  /// never carry one.
  std::optional<Certificate> certificate;
};

// --- the interface --------------------------------------------------------

class Solver {
 public:
  virtual ~Solver() = default;

  /// Runs the algorithm on `request.instance`. `run_context` (nullable =
  /// unlimited) carries deadline/cancellation/work budgets; on a trip,
  /// anytime solvers return the interruption Status carrying a partial
  /// SolveResult payload (status.payload<SolveResult>()), so every
  /// frontend handles best-so-far output uniformly.
  virtual Result<SolveResult> Solve(const SolveRequest& request,
                                    const RunContext* run_context) const = 0;
};

}  // namespace api
}  // namespace scwsc

#endif  // SCWSC_API_SOLVER_H_
