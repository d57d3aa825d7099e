// The registry-backed Solver API: every registered solver satisfies the
// uniform request/response contract on a golden instance, dispatching
// through the registry is bit-identical to calling the algorithm directly,
// interruption surrenders a typed partial result, and concurrent solves
// share one immutable snapshot without copying it.

#include "src/api/registry.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/adapter_util.h"
#include "src/api/instance.h"
#include "src/api/solver.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/exact.h"
#include "src/core/solve_index.h"
#include "src/gen/lbl_synth.h"
#include "src/gen/toy.h"
#include "src/hierarchy/hierarchy.h"
#include "src/obs/trace.h"
#include "src/pattern/opt_cwsc.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

using api::InstancePtr;
using api::SolveRequest;
using api::SolveResult;
using api::SolverRegistry;

/// The paper's 16-entity toy table, with flat hierarchies so every solver
/// family (set-system, lattice, hierarchical) can run on it.
InstancePtr GoldenInstance() {
  Table table = gen::MakeEntitiesTable();
  auto hier = hierarchy::TableHierarchy::Flat(table);
  auto instance = api::InstanceSnapshot::FromTable(
      std::move(table), pattern::CostFunction(pattern::CostKind::kMax),
      std::move(hier));
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return *instance;
}

SolveRequest MakeRequest(InstancePtr instance, std::size_t k, double fraction,
                         const std::vector<std::string>& options = {}) {
  auto request = SolveRequest::Builder(std::move(instance))
                     .WithK(k)
                     .WithCoverage(fraction)
                     .WithOptions(options)
                     .Build();
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return *std::move(request);
}

TEST(SolverRegistryTest, EverySolverSatisfiesContractOnGoldenInstance) {
  const InstancePtr instance = GoldenInstance();
  const auto infos = SolverRegistry::Global().List();
  ASSERT_GE(infos.size(), 14u) << "built-in solvers missing from registry";

  for (const api::SolverInfo& info : infos) {
    // Stubs registered by this test binary don't model real algorithms.
    if (info.name.rfind("test-", 0) == 0) continue;
    SCOPED_TRACE("solver: " + info.name);
    std::vector<std::string> options;
    if (info.name == "budgeted-max-coverage") options = {"budget=100"};
    if (info.name == "nonoverlap") options = {"best_effort=true"};
    auto result = SolverRegistry::Global().Solve(
        info.name, MakeRequest(instance, 3, 0.5, options));
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The audit recomputes cost and coverage independently of the
    // algorithm's own bookkeeping; it must agree for every solver.
    EXPECT_TRUE(result->audit.bookkeeping_consistent);
    EXPECT_FALSE(result->labels.empty());
    EXPECT_EQ(result->audit.covered, result->covered);
    EXPECT_NEAR(result->audit.total_cost, result->total_cost, 1e-9);

    // The contract the adapter reported must hold for the result it
    // returned (0 on an axis = no promise there).
    if (result->contract.max_sets > 0) {
      EXPECT_LE(result->labels.size(), result->contract.max_sets);
    }
    if (result->contract.coverage_target > 0) {
      EXPECT_GE(result->covered, result->contract.coverage_target);
    }
  }
}

TEST(SolverRegistryTest, EverySolverEmitsRootSpanWithPhaseChildAndCounters) {
  const InstancePtr instance = GoldenInstance();
  for (const api::SolverInfo& info : SolverRegistry::Global().List()) {
    if (info.name.rfind("test-", 0) == 0) continue;
    SCOPED_TRACE("solver: " + info.name);
    std::vector<std::string> options;
    if (info.name == "budgeted-max-coverage") options = {"budget=100"};
    if (info.name == "nonoverlap") options = {"best_effort=true"};

    obs::TraceSession trace;
    SolveRequest request = MakeRequest(instance, 3, 0.5, options);
    request.trace = &trace;
    auto result = SolverRegistry::Global().Solve(info.name, request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // One closed root span per dispatch, named after the solver...
    const std::vector<obs::SpanRecord> spans = trace.spans();
    const obs::SpanRecord* root = nullptr;
    for (const obs::SpanRecord& s : spans) {
      if (s.name == "solve/" + info.name) root = &s;
    }
    ASSERT_NE(root, nullptr) << "no root span among " << spans.size();
    EXPECT_TRUE(root->closed());
    EXPECT_EQ(root->parent, obs::kNoSpan);

    // ...with at least one phase span nested beneath it.
    bool has_phase_child = false;
    for (const obs::SpanRecord& s : spans) {
      if (s.parent == root->id) has_phase_child = true;
    }
    EXPECT_TRUE(has_phase_child) << "root span has no phase children";

    // Every adapter accounts for its candidate scans (satellite contract:
    // sets_considered must not silently stay zero)...
    EXPECT_GT(result->counters.sets_considered, 0u);
    // ...and the dispatch folded the snapshot into the session's registry.
    EXPECT_EQ(trace.metrics().CounterValue("solve." + info.name + ".solves"),
              1u);
    EXPECT_EQ(
        trace.metrics().CounterValue("solve." + info.name +
                                     ".sets_considered"),
        result->counters.sets_considered);
  }
}

TEST(SolverRegistryTest, GeneralizedCmcReportsBudgetRounds) {
  const InstancePtr instance = GoldenInstance();
  for (const char* name : {"cmc", "cmc-literal", "opt-cmc", "hcmc"}) {
    SCOPED_TRACE(name);
    auto result =
        SolverRegistry::Global().Solve(name, MakeRequest(instance, 3, 0.5));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->counters.budget_rounds, 0u);
    EXPECT_GT(result->counters.final_budget, 0.0);
  }
}

TEST(SolverRegistryTest, UntracedRequestRecordsNothing) {
  const InstancePtr instance = GoldenInstance();
  auto result =
      SolverRegistry::Global().Solve("cwsc", MakeRequest(instance, 3, 0.5));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // No session attached: the solve still fills the typed counters.
  EXPECT_GT(result->counters.sets_considered, 0u);
}

TEST(SolverRegistryTest, RegistryDispatchIsBitIdenticalToDirectCalls) {
  gen::LblSynthSpec spec;
  spec.num_rows = 500;
  spec.seed = 7;
  auto table = gen::MakeLblSynth(spec);
  ASSERT_TRUE(table.ok());
  const pattern::CostFunction cost_fn(pattern::CostKind::kMax);
  auto instance =
      api::InstanceSnapshot::FromTable(Table(*table), cost_fn);
  ASSERT_TRUE(instance.ok());
  const std::size_t k = 5;
  const double fraction = 0.4;

  auto system = (*instance)->set_system();
  ASSERT_TRUE(system.ok());

  {  // cwsc == RunCwsc on the same set system.
    auto via_registry = SolverRegistry::Global().Solve(
        "cwsc", MakeRequest(*instance, k, fraction));
    ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();
    auto direct = RunCwsc(**system, {k, fraction});
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_registry->solution.sets, direct->sets);
    EXPECT_EQ(via_registry->total_cost, direct->total_cost);  // bit-identical
  }
  {  // cmc == RunCmc with default knobs.
    auto via_registry = SolverRegistry::Global().Solve(
        "cmc", MakeRequest(*instance, k, fraction));
    ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();
    CmcOptions opts;
    opts.k = k;
    opts.coverage_fraction = fraction;
    auto direct = RunCmc(**system, opts);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_registry->solution.sets, direct->solution.sets);
    EXPECT_EQ(via_registry->total_cost, direct->solution.total_cost);
  }
  {  // opt-cwsc == RunOptimizedCwsc on the same table (no enumeration).
    auto via_registry = SolverRegistry::Global().Solve(
        "opt-cwsc", MakeRequest(*instance, k, fraction));
    ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();
    auto direct = pattern::RunOptimizedCwsc(*table, cost_fn, {k, fraction});
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_registry->patterns, direct->patterns);
    EXPECT_EQ(via_registry->total_cost, direct->total_cost);
  }
  {  // exact == SolveExact.
    auto small = gen::MakeEntitiesTable();
    auto toy = api::InstanceSnapshot::FromTable(Table(small), cost_fn);
    ASSERT_TRUE(toy.ok());
    auto via_registry = SolverRegistry::Global().Solve(
        "exact", MakeRequest(*toy, 2, 9.0 / 16.0));
    ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();
    auto toy_system = (*toy)->set_system();
    ASSERT_TRUE(toy_system.ok());
    ExactOptions opts;
    opts.k = 2;
    opts.coverage_fraction = 9.0 / 16.0;
    auto direct = SolveExact(**toy_system, opts);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_registry->solution.sets, direct->solution.sets);
    EXPECT_EQ(via_registry->total_cost, direct->solution.total_cost);
  }
}

TEST(SolverRegistryTest, LatticeAuditRejectsRepeatedPatterns) {
  // Each repeat re-matches the same rows, so coverage and a doubled cost
  // recount consistently; the audit must still reject the solution, for
  // flat and hierarchical patterns alike.
  const InstancePtr instance = GoldenInstance();
  const SolveRequest request = MakeRequest(instance, 3, 0.5);
  const Table& table = instance->table();
  const pattern::CostFunction& cost_fn = instance->cost_fn();
  std::vector<RowId> type_b;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (table.value(r, 0) == 1) type_b.push_back(r);
  }
  const double cost = 2 * cost_fn.Compute(table, type_b);

  hierarchy::HSolution hier;
  hier.patterns.assign(2, hierarchy::HPattern({1, hierarchy::kAllNode}));
  hier.total_cost = cost;
  hier.covered = type_b.size();
  auto hier_result =
      api::internal::FinishLatticeBacked(request, hier, 0.0, {}, {});
  EXPECT_TRUE(hier_result.status().IsInvalidArgument())
      << hier_result.status().ToString();

  pattern::PatternSolution flat;
  flat.patterns.assign(2, pattern::Pattern({1, pattern::kAll}));
  flat.total_cost = cost;
  flat.covered = type_b.size();
  auto flat_result =
      api::internal::FinishLatticeBacked(request, flat, 0.0, {}, {});
  EXPECT_TRUE(flat_result.status().IsInvalidArgument())
      << flat_result.status().ToString();
}

TEST(SolverRegistryTest, InterruptionReturnsPartialResultPayload) {
  const InstancePtr instance = GoldenInstance();
  RunContext ctx;
  ctx.FailAfter(0);  // cancel at the very first check point
  auto result = SolverRegistry::Global().Solve(
      "cwsc", MakeRequest(instance, 3, 0.5), &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInterruption())
      << result.status().ToString();
  const auto* partial = result.status().payload<SolveResult>();
  ASSERT_NE(partial, nullptr);
  // The partial result obeys the same envelope as a finished one.
  EXPECT_LE(partial->labels.size(), 3u);
  EXPECT_EQ(partial->labels.size(), partial->provenance.sets_chosen);
}

TEST(SolverRegistryTest, ConcurrentSolvesShareOneSnapshotWithoutCopying) {
  const InstancePtr instance = GoldenInstance();
  // Materialize the set-system view up front and pin its address: if any
  // solve copied the snapshot (or rebuilt the view), the pointer would
  // differ afterwards.
  auto before = instance->set_system();
  ASSERT_TRUE(before.ok());
  const SetSystem* view = *before;
  const long baseline_use_count = instance.use_count();

  // lp-rounding builds an inverted index of its own from the shared view
  // on every solve; running it beside the others shows the view is only
  // ever read.
  constexpr const char* kSolvers[] = {"cwsc", "opt-cwsc", "lp-rounding"};
  constexpr int kFamilies = 3;
  constexpr int kThreads = 9;
  std::vector<double> costs(kThreads, -1.0);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const char* solver = kSolvers[t % kFamilies];
        auto result = SolverRegistry::Global().Solve(
            solver, MakeRequest(instance, 3, 0.5));
        if (!result.ok()) {
          failures.fetch_add(1);
          return;
        }
        costs[static_cast<std::size_t>(t)] = result->total_cost;
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Deterministic algorithms over one immutable snapshot: same answer on
  // every thread, per solver family.
  for (int t = kFamilies; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(costs[static_cast<std::size_t>(t)],
                     costs[static_cast<std::size_t>(t % kFamilies)]);
  }
  auto after = instance->set_system();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, view);  // the shared view was never rebuilt or copied
  EXPECT_EQ(instance.use_count(), baseline_use_count);  // no handle leaked
}

// The first solves on a fresh table snapshot race to materialize its view
// and build its solve index: each is built once, every solver family gets
// one answer on every thread, and the index keeps one address.
TEST(SolverRegistryTest, ConcurrentFirstSolvesBuildOneIndex) {
  Table table = gen::MakeEntitiesTable();
  auto made = api::InstanceSnapshot::FromTable(
      std::move(table), pattern::CostFunction(pattern::CostKind::kMax));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const InstancePtr instance = *made;
  ASSERT_FALSE(instance->set_system_materialized());

  constexpr const char* kSolvers[] = {"cwsc", "greedy-wsc", "cmc"};
  constexpr int kFamilies = 3;
  constexpr int kThreads = 9;
  obs::TraceSession trace;
  std::vector<std::vector<std::string>> labels(kThreads);
  std::vector<const SolveIndex*> indexes(kThreads, nullptr);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        SolveRequest request = MakeRequest(instance, 3, 0.5);
        request.trace = &trace;
        auto result =
            SolverRegistry::Global().Solve(kSolvers[t % kFamilies], request);
        auto index = instance->solve_index();
        if (!result.ok() || !index.ok()) {
          failures.fetch_add(1);
          return;
        }
        labels[static_cast<std::size_t>(t)] = result->labels;
        indexes[static_cast<std::size_t>(t)] = *index;
      });
    }
    for (auto& w : workers) w.join();
  }
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_FALSE(labels[i].empty());
    EXPECT_EQ(labels[i], labels[i % kFamilies]) << kSolvers[t % kFamilies];
    EXPECT_EQ(indexes[i], indexes[0]);
  }
  std::size_t builds = 0;
  for (const obs::SpanRecord& span : trace.spans()) {
    if (span.name == "solve_index") ++builds;
  }
  EXPECT_EQ(builds, 1u);
}

// A complete out-of-tree solver: one class + one macro line, as
// docs/api.md promises.
class FixedAnswerSolver : public api::Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext*) const override {
    SolveResult result;
    result.labels = {"the-answer"};
    result.covered = request.instance->num_elements();
    result.audit.bookkeeping_consistent = true;
    result.seconds = 42.0;
    return result;
  }
};
SCWSC_REGISTER_SOLVER(
    FixedAnswerSolver,
    api::SolverInfo{"test-fixed-answer",
                    "registration test stub",
                    0,
                    {{"knob", api::OptionType::kU64, "0", "test knob",
                      false}}});

TEST(SolverRegistryTest, CustomSolverRegistersThroughMacro) {
  const api::SolverInfo* info =
      SolverRegistry::Global().Find("test-fixed-answer");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->summary, "registration test stub");

  const InstancePtr instance = GoldenInstance();
  auto result = SolverRegistry::Global().Solve(
      "test-fixed-answer", MakeRequest(instance, 1, 0.1, {"knob=7"}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels, std::vector<std::string>{"the-answer"});
  EXPECT_EQ(result->seconds, 42.0);
}

TEST(SolverRegistryTest, DuplicateAndEmptyRegistrationsAreRejected) {
  auto& registry = SolverRegistry::Global();
  auto factory = []() -> std::unique_ptr<api::Solver> {
    return std::make_unique<FixedAnswerSolver>();
  };
  EXPECT_TRUE(registry
                  .Register(api::SolverInfo{"test-fixed-answer", "dup", 0, {}},
                            factory)
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.Register(api::SolverInfo{"", "anon", 0, {}}, factory)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      registry.Register(api::SolverInfo{"test-null", "null", 0, {}}, nullptr)
          .IsInvalidArgument());
}

TEST(SolverRegistryTest, UnknownSolverListsRegisteredNames) {
  const InstancePtr instance = GoldenInstance();
  auto result = SolverRegistry::Global().Solve(
      "no-such-solver", MakeRequest(instance, 3, 0.5));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_NE(std::string(result.status().message()).find("opt-cwsc"),
            std::string::npos);
}

TEST(SolverRegistryTest, UnknownOptionIsRejectedBeforeSolving) {
  const InstancePtr instance = GoldenInstance();
  auto result = SolverRegistry::Global().Solve(
      "cmc", MakeRequest(instance, 3, 0.5, {"espilon=2"}));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // The error names the typo and the accepted keys.
  const std::string message(result.status().message());
  EXPECT_NE(message.find("espilon"), std::string::npos);
  EXPECT_NE(message.find("epsilon"), std::string::npos);
}

TEST(SolverRegistryTest, LookupIsCaseInsensitive) {
  const api::SolverInfo* upper = SolverRegistry::Global().Find("CWSC");
  ASSERT_NE(upper, nullptr);
  EXPECT_EQ(upper->name, "cwsc");  // canonical spelling, not the query's

  const InstancePtr instance = GoldenInstance();
  auto mixed =
      SolverRegistry::Global().Solve("CwSc", MakeRequest(instance, 3, 0.5));
  auto lower =
      SolverRegistry::Global().Solve("cwsc", MakeRequest(instance, 3, 0.5));
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(mixed->labels, lower->labels);
  EXPECT_EQ(mixed->total_cost, lower->total_cost);
}

TEST(SolverRegistryTest, OptionKeysMatchTheRegisteredSpellingExactly) {
  const InstancePtr instance = GoldenInstance();
  auto exact = SolverRegistry::Global().Solve(
      "cmc", MakeRequest(instance, 3, 0.5, {"max_budget_rounds=64"}));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  // The old hyphenated aliases and case variants are unknown keys, for
  // every solver that registered one; the error lists the one spelling.
  struct Refused {
    const char* solver;
    const char* key;
    const char* registered;
  };
  for (const Refused& r : std::vector<Refused>{
           {"cmc", "max-budget-rounds", "max_budget_rounds"},
           {"cmc", "MAX_BUDGET_ROUNDS", "max_budget_rounds"},
           {"cmc", "Epsilon", "epsilon"},
           {"greedy-wsc", "max-sets", "max_sets"},
           {"greedy-max-coverage", "stop-coverage", "stop_coverage"},
           {"exact", "max-nodes", "max_nodes"},
           {"nonoverlap", "best-effort", "best_effort"},
       }) {
    auto result = SolverRegistry::Global().Solve(
        r.solver,
        MakeRequest(instance, 3, 0.5, {std::string(r.key) + "=1"}));
    ASSERT_FALSE(result.ok()) << r.solver << " " << r.key;
    EXPECT_TRUE(result.status().IsInvalidArgument());
    const std::string message(result.status().message());
    EXPECT_NE(message.find("unknown option '" + std::string(r.key) + "'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(r.registered), std::string::npos) << message;
  }
}

// The options round-trip property: for every registered solver, spelling
// out each option's spec default as an "--opt key=value" string must yield
// a SolveResult bit-identical to the request that says nothing at all —
// i.e. the parse path (CLI strings -> OptionsBag -> Validate -> typed
// reads) agrees with the defaults compiled into the adapters.
TEST(SolverRegistryTest, SpecDefaultsRoundTripBitIdentically) {
  const InstancePtr instance = GoldenInstance();
  for (const api::SolverInfo& info : SolverRegistry::Global().List()) {
    if (info.name.rfind("test-", 0) == 0) continue;
    SCOPED_TRACE("solver: " + info.name);

    // Required options have no default; both arms carry the same value.
    std::vector<std::string> baseline;
    std::vector<std::string> explicit_defaults;
    for (const api::OptionSpec& opt : info.options) {
      if (opt.required) {
        baseline.push_back(opt.name + "=100");
        explicit_defaults.push_back(opt.name + "=100");
      } else {
        explicit_defaults.push_back(opt.name + "=" + opt.default_value);
      }
    }

    auto implicit = SolverRegistry::Global().Solve(
        info.name, MakeRequest(instance, 3, 0.5, baseline));
    auto spelled = SolverRegistry::Global().Solve(
        info.name, MakeRequest(instance, 3, 0.5, explicit_defaults));
    ASSERT_EQ(implicit.ok(), spelled.ok())
        << implicit.status().ToString() << " vs "
        << spelled.status().ToString();
    if (!implicit.ok()) {
      // Some solvers are legitimately infeasible here (e.g. nonoverlap
      // without best_effort); both arms must then fail identically.
      EXPECT_EQ(implicit.status().code(), spelled.status().code());
      continue;
    }
    EXPECT_EQ(implicit->labels, spelled->labels);
    EXPECT_EQ(implicit->total_cost, spelled->total_cost);  // bit-identical
    EXPECT_EQ(implicit->covered, spelled->covered);
  }
}

TEST(SolverRegistryTest, BuilderDefersParseErrorsToBuild) {
  const InstancePtr instance = GoldenInstance();
  auto bad = SolveRequest::Builder(instance)
                 .WithK(3)
                 .WithOptions({"not-an-assignment"})
                 .WithCoverage(0.5)  // chaining continues past the error
                 .Build();
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(SolverRegistryTest, RequestDeadlineConflictsWithExplicitRunContext) {
  const InstancePtr instance = GoldenInstance();
  auto request = SolveRequest::Builder(instance)
                     .WithK(3)
                     .WithCoverage(0.5)
                     .WithDeadline(std::chrono::milliseconds(5000))
                     .Build();
  ASSERT_TRUE(request.ok());

  // Deadline alone: applied via an internal context; a generous budget
  // leaves the solve untouched.
  auto result = SolverRegistry::Global().Solve("cwsc", *request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Deadline plus an explicit context: ambiguous authority, rejected.
  RunContext ctx;
  auto conflict = SolverRegistry::Global().Solve("cwsc", *request, &ctx);
  ASSERT_FALSE(conflict.ok());
  EXPECT_TRUE(conflict.status().IsInvalidArgument());
}

TEST(SolverRegistryTest, CertifyNeedsASetSystemSolver) {
  auto flat = api::InstanceSnapshot::FromTable(
      gen::MakeEntitiesTable(),
      pattern::CostFunction(pattern::CostKind::kMax));
  ASSERT_TRUE(flat.ok());
  api::SolveRequest request = MakeRequest(*flat, 2, 0.5);
  request.certify = true;
  // The lattice solvers never build the SetSystem view the certificate
  // prices, so asking one to certify is refused before it runs.
  auto lattice = SolverRegistry::Global().Solve("opt-cwsc", request);
  ASSERT_FALSE(lattice.ok());
  EXPECT_TRUE(lattice.status().IsInvalidArgument());
  EXPECT_NE(std::string(lattice.status().message()).find("certify"),
            std::string::npos);

  auto certified = SolverRegistry::Global().Solve("cwsc", request);
  ASSERT_TRUE(certified.ok()) << certified.status().ToString();
  ASSERT_TRUE(certified->certificate.has_value());
  EXPECT_LE(certified->certificate->lower_bound, certified->total_cost);
  EXPECT_GE(certified->certificate->certified_ratio, 1.0);
  request.certify = false;
  auto plain = SolverRegistry::Global().Solve("cwsc", request);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(plain->certificate.has_value());
  EXPECT_EQ(plain->labels, certified->labels);
}

/// A set-system solver that never looks at its RunContext, so a context
/// that is already cancelled first trips in the certify step.
class ContextBlindSolver : public api::Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest&,
                            const RunContext*) const override {
    SolveResult result;
    result.labels = {"blind"};
    result.total_cost = 5.0;
    return result;
  }
};
SCWSC_REGISTER_SOLVER(ContextBlindSolver,
                      api::SolverInfo{"test-context-blind",
                                      "certify trip test stub",
                                      api::kNeedsSetSystem,
                                      {}});

TEST(SolverRegistryTest, TripWhileCertifyingReturnsTheAnswerUncertified) {
  SolveRequest request = MakeRequest(GoldenInstance(), 2, 0.5);
  request.certify = true;
  RunContext ctx;
  ctx.RequestCancel();
  auto result =
      SolverRegistry::Global().Solve("test-context-blind", request, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  const auto* partial = result.status().payload<SolveResult>();
  ASSERT_NE(partial, nullptr);
  EXPECT_EQ(partial->labels, std::vector<std::string>{"blind"});
  EXPECT_FALSE(partial->certificate.has_value());
  EXPECT_EQ(partial->provenance.trip, TripKind::kCancel);
}

TEST(SolverRegistryTest, CapabilityMismatchIsATypedError) {
  // A lattice solver cannot run on an explicit set system...
  SetSystem system(4);
  ASSERT_TRUE(system.AddSet({0, 1}, 1.0, "a").ok());
  ASSERT_TRUE(system.AddSet({2, 3}, 1.0, "b").ok());
  auto raw = api::InstanceSnapshot::FromSetSystem(std::move(system));
  ASSERT_TRUE(raw.ok());
  auto result = SolverRegistry::Global().Solve(
      "opt-cwsc", MakeRequest(*raw, 2, 0.5));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());

  // ...and a hierarchical solver cannot run without hierarchies.
  auto flat = api::InstanceSnapshot::FromTable(
      gen::MakeEntitiesTable(),
      pattern::CostFunction(pattern::CostKind::kMax));
  ASSERT_TRUE(flat.ok());
  auto hresult = SolverRegistry::Global().Solve(
      "hcwsc", MakeRequest(*flat, 2, 0.5));
  ASSERT_FALSE(hresult.ok());
  EXPECT_TRUE(hresult.status().IsInvalidArgument());
  EXPECT_NE(std::string(hresult.status().message()).find("hierarch"),
            std::string::npos);
}

}  // namespace
}  // namespace scwsc
