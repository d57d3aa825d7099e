// The serve layer: JSON round-trips, content-hash stability, cache LRU
// behavior, and the SolveScheduler's contract — deterministic result-cache
// hits, deadline trips surfacing partial payloads, typed backpressure,
// priority aging (no starvation), graceful drain — plus the batch front end
// end to end.

#include "src/serve/scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/common/run_context.h"
#include "src/common/thread_pool.h"
#include "src/core/instances.h"
#include "src/gen/toy.h"
#include "src/serve/batch.h"
#include "src/serve/cache.h"
#include "src/serve/json.h"
#include "src/table/builder.h"

namespace scwsc {
namespace {

using api::InstancePtr;
using api::SolveRequest;
using api::SolveResult;
using serve::JobOutcome;
using serve::SolveJob;
using serve::SolveScheduler;

InstancePtr ToyInstance() {
  auto instance = api::InstanceSnapshot::FromTable(
      gen::MakeEntitiesTable(),
      pattern::CostFunction(pattern::CostKind::kMax));
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return *instance;
}

SolveJob MakeJob(InstancePtr instance, const std::string& solver,
                 std::size_t k = 3, double fraction = 0.5,
                 const std::vector<std::string>& options = {}) {
  auto request = SolveRequest::Builder(std::move(instance))
                     .WithK(k)
                     .WithCoverage(fraction)
                     .WithOptions(options)
                     .Build();
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  SolveJob job;
  job.solver = solver;
  job.request = *std::move(request);
  return job;
}

/// Shared state for the two test stubs: a gate the GatedSolver blocks on
/// (opened for everyone, or one release token at a time) and the execution
/// order both stubs record.
struct GateState {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int tokens = 0;  // one blocked GatedSolver proceeds per token
  std::vector<std::string> ran;  // labels, in execution order
};

GateState& Gate() {
  static GateState* state = new GateState();
  return *state;
}

void OpenGate() {
  std::lock_guard<std::mutex> lock(Gate().mu);
  Gate().open = true;
  Gate().cv.notify_all();
}

/// Lets exactly one blocked GatedSolver finish.
void ReleaseOne() {
  std::lock_guard<std::mutex> lock(Gate().mu);
  ++Gate().tokens;
  Gate().cv.notify_all();
}

void ResetGate() {
  std::lock_guard<std::mutex> lock(Gate().mu);
  Gate().open = false;
  Gate().tokens = 0;
  Gate().ran.clear();
}

/// Blocks until the gate opens (or a release token arrives), then records
/// its label. Trips cooperatively while waiting, surfacing a partial
/// payload like real solvers do.
class GatedSolver : public api::Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext* run_context) const override {
    GateState& gate = Gate();
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      // Wait in slices so a deadline on the run context still trips while
      // the gate stays shut.
      while (!gate.open && gate.tokens == 0) {
        if (run_context != nullptr &&
            run_context->Check() != TripKind::kNone) {
          SolveResult partial;
          partial.labels = {"partial-" + request.label};
          partial.audit.bookkeeping_consistent = true;
          return TripStatus(run_context->tripped(), "gated solve")
              .WithPayload(std::move(partial));
        }
        gate.cv.wait_for(lock, std::chrono::milliseconds(1));
      }
      if (!gate.open && gate.tokens > 0) --gate.tokens;
      gate.ran.push_back(request.label);
    }
    SolveResult result;
    result.labels = {"ran-" + request.label};
    result.covered = request.instance->num_elements();
    result.audit.bookkeeping_consistent = true;
    return result;
  }
};

SCWSC_REGISTER_SOLVER(GatedSolver,
                      api::SolverInfo{"test-gated", "serve test stub", 0, {}});

/// Records its label and returns immediately — never blocks.
class RecorderSolver : public api::Solver {
 public:
  Result<SolveResult> Solve(const SolveRequest& request,
                            const RunContext*) const override {
    {
      std::lock_guard<std::mutex> lock(Gate().mu);
      Gate().ran.push_back(request.label);
    }
    SolveResult result;
    result.labels = {"ran-" + request.label};
    result.covered = request.instance->num_elements();
    result.audit.bookkeeping_consistent = true;
    return result;
  }
};

SCWSC_REGISTER_SOLVER(
    RecorderSolver,
    api::SolverInfo{"test-recorder", "serve test stub", 0, {}});

// ---------------------------------------------------------------- JSON ----

TEST(ServeJsonTest, RoundTripsThroughDumpAndParse) {
  serve::JsonObject object;
  object["name"] = std::string("serve");
  object["count"] = std::size_t{42};
  object["ratio"] = 0.5;
  object["on"] = true;
  serve::JsonArray array;
  array.push_back(serve::JsonValue(1.0));
  array.push_back(serve::JsonValue(std::string("two")));
  object["items"] = serve::JsonValue(std::move(array));

  const std::string dumped = serve::JsonValue(std::move(object)).Dump();
  auto parsed = serve::ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), dumped);  // canonical form is a fixed point

  EXPECT_EQ(parsed->Find("name")->as_string(), "serve");
  EXPECT_EQ(parsed->Find("count")->as_number(), 42.0);
  EXPECT_TRUE(parsed->Find("on")->as_bool());
  EXPECT_EQ(parsed->Find("items")->as_array().size(), 2u);
  EXPECT_EQ(parsed->Find("missing"), nullptr);
}

TEST(ServeJsonTest, IntegralNumbersDumpWithoutFraction) {
  EXPECT_EQ(serve::JsonValue(3.0).Dump(), "3");
  EXPECT_EQ(serve::JsonValue(3.5).Dump(), "3.5");
}

TEST(ServeJsonTest, MalformedInputsAreTypedErrors) {
  EXPECT_FALSE(serve::ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(serve::ParseJson("[1, 2").ok());
  EXPECT_FALSE(serve::ParseJson("{} trailing").ok());
  EXPECT_FALSE(serve::ParseJson("nul").ok());
  auto status = serve::ParseJson("{\"a\": }").status();
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(ServeJsonTest, TruncatedInputsAreTypedErrors) {
  for (const char* text :
       {"", "{", "{\"a\"", "{\"a\":", "{\"a\":1,", "[", "[1,", "\"unterminat",
        "tru", "-"}) {
    auto parsed = serve::ParseJson(text);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << "input: " << text;
  }
}

TEST(ServeJsonTest, NestingBeyondTheDepthLimitIsRejected) {
  serve::JsonParseLimits limits;
  limits.max_depth = 8;
  const std::string fits(8, '[');
  EXPECT_TRUE(serve::ParseJson(fits + std::string(8, ']'), limits).ok());
  const std::string too_deep(9, '[');
  auto rejected = serve::ParseJson(too_deep + std::string(9, ']'), limits);
  ASSERT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_NE(rejected.status().message().find("nesting"), std::string::npos);

  // A hostile megabyte of '[' with the default limits errors instead of
  // overflowing the parser's stack.
  EXPECT_FALSE(serve::ParseJson(std::string(1 << 20, '[')).ok());

  // Mixed object/array nesting counts every level.
  limits.max_depth = 3;
  EXPECT_TRUE(serve::ParseJson(R"({"a": [{"b": 1}]})", limits).ok());
  EXPECT_FALSE(serve::ParseJson(R"({"a": [{"b": []}]})", limits).ok());
}

TEST(ServeJsonTest, InputBeyondTheSizeLimitIsRejected) {
  serve::JsonParseLimits limits;
  limits.max_bytes = 16;
  EXPECT_TRUE(serve::ParseJson("[1, 2, 3]", limits).ok());
  auto rejected = serve::ParseJson("[1, 2, 3, 4, 5, 6]", limits);
  ASSERT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_NE(rejected.status().message().find("exceeds"), std::string::npos);
  limits.max_bytes = 0;  // 0 = unlimited
  EXPECT_TRUE(serve::ParseJson("[1, 2, 3, 4, 5, 6]", limits).ok());
}

TEST(ServeJsonTest, NonFiniteNumbersAreRejected) {
  // JSON has no NaN/Infinity literals, and "1e999" overflows double to
  // infinity: both must be typed errors, not silent poison values.
  EXPECT_FALSE(serve::ParseJson("NaN").ok());
  EXPECT_FALSE(serve::ParseJson("Infinity").ok());
  auto overflow = serve::ParseJson("1e999");
  ASSERT_TRUE(overflow.status().IsInvalidArgument());
  EXPECT_NE(overflow.status().message().find("not finite"), std::string::npos);
  EXPECT_FALSE(serve::ParseJson("-1e999").ok());
  EXPECT_FALSE(serve::ParseJson("[1, 1e999]").ok());
  EXPECT_TRUE(serve::ParseJson("1e308").ok());  // near the edge but finite
}

TEST(ServeJsonTest, DuplicateObjectKeysAreRejected) {
  auto dup = serve::ParseJson(R"({"a": 1, "a": 2})");
  ASSERT_TRUE(dup.status().IsInvalidArgument());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
  EXPECT_FALSE(serve::ParseJson(R"({"x": {"a": 1, "b": 2, "a": 3}})").ok());
  EXPECT_TRUE(serve::ParseJson(R"({"a": 1, "b": {"a": 2}})").ok());
}

// -------------------------------------------------------------- caches ----

TEST(ServeCacheTest, ContentHashIsStableAndContentSensitive) {
  InstancePtr a = ToyInstance();
  InstancePtr b = ToyInstance();
  // Two snapshots of identical data hash identically...
  EXPECT_EQ(a->content_hash(), b->content_hash());

  // ...while different data hashes differently.
  SetSystem system(4);
  ASSERT_TRUE(system.AddSet({0, 1}, 1.0, "s0").ok());
  auto other = api::InstanceSnapshot::FromSetSystem(std::move(system));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(a->content_hash(), (*other)->content_hash());

  // Two sets of equal cost and label: moving one element across their
  // boundary keeps the concatenated element bytes, exchanging two keeps
  // every size, and both must still move the hash.
  auto sets = [](std::vector<ElementId> first, std::vector<ElementId> second) {
    SetSystem pair(4);
    EXPECT_TRUE(pair.AddSet(std::move(first), 1.0, "x").ok());
    EXPECT_TRUE(pair.AddSet(std::move(second), 1.0, "x").ok());
    auto instance = api::InstanceSnapshot::FromSetSystem(std::move(pair));
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    return (*instance)->content_hash();
  };
  EXPECT_EQ(sets({0, 1}, {2, 3}), sets({0, 1}, {2, 3}));
  EXPECT_NE(sets({0, 1}, {2, 3}), sets({0}, {1, 2, 3}));
  EXPECT_NE(sets({0, 1}, {2, 3}), sets({0, 2}, {1, 3}));

  // A table's hash covers its encoded columns, measures and dictionary
  // names; each variant below changes exactly one of the three.
  using Row = std::tuple<std::string_view, std::string_view, double>;
  auto table = [](const std::vector<Row>& rows) {
    TableBuilder builder({"region", "tier"}, "load");
    for (const auto& [region, tier, measure] : rows) {
      EXPECT_TRUE(builder.AddRow({region, tier}, measure).ok());
    }
    auto instance = api::InstanceSnapshot::FromTable(
        std::move(builder).Build(),
        pattern::CostFunction(pattern::CostKind::kMax));
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    return (*instance)->content_hash();
  };
  const std::vector<Row> base = {
      {"north", "t0", 1.0}, {"south", "t1", 2.0}, {"north", "t1", 2.0}};
  EXPECT_EQ(table(base), table(base));
  EXPECT_NE(table(base), table({{"north", "t0", 1.0},
                                {"south", "t1", 2.5},
                                {"north", "t1", 2.0}}));
  EXPECT_NE(table(base), table({{"nord", "t0", 1.0},
                                {"south", "t1", 2.0},
                                {"nord", "t1", 2.0}}));
  EXPECT_NE(table(base), table({{"north", "t0", 1.0},
                                {"north", "t1", 2.0},
                                {"south", "t1", 2.0}}));
}

TEST(ServeCacheTest, OneRewrittenElementMovesTheContentHash) {
  auto build = [](ElementId perturbed) {
    SetSystem system(512);
    for (int s = 0; s < 8; ++s) {
      std::vector<ElementId> elements;
      for (ElementId e = static_cast<ElementId>(s * 64);
           e < static_cast<ElementId>(s * 64 + 40); ++e) {
        elements.push_back(e);
      }
      if (s == 7 && perturbed != 0) elements[0] = perturbed;
      EXPECT_TRUE(
          system.AddSet(elements, 2.0 + s, "s" + std::to_string(s)).ok());
    }
    auto instance = api::InstanceSnapshot::FromSetSystem(std::move(system));
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    return *instance;
  };
  // v2 rewrites one element of the last set; every size, cost and label
  // stays the same.
  InstancePtr v1 = build(0);
  InstancePtr v2 = build(500);
  EXPECT_EQ(v1->content_hash(), build(0)->content_hash());
  EXPECT_NE(v1->content_hash(), v2->content_hash());
}

TEST(ServeCacheTest, OptionKeysOtherThanTheRegisteredSpellingAreNeverCached) {
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  InstancePtr instance = ToyInstance();
  const auto run = [&](const char* solver, const char* option) {
    auto future =
        scheduler.Enqueue(MakeJob(instance, solver, 3, 0.5, {option}));
    EXPECT_TRUE(future.ok()) << future.status().ToString();
    return future->get();
  };

  JobOutcome cold = run("cmc", "max_budget_rounds=64");
  ASSERT_TRUE(cold.result.ok()) << cold.result.status().ToString();
  EXPECT_FALSE(cold.from_result_cache);
  // The solver name folds case, so this is the same solve.
  JobOutcome warm = run("CMC", "max_budget_rounds=64");
  ASSERT_TRUE(warm.result.ok());
  EXPECT_TRUE(warm.from_result_cache);

  // Option keys match byte for byte: the old hyphenated alias and an
  // upper-case spelling are refused with the accepted keys, every time,
  // and never fill an entry of their own.
  for (int round = 0; round < 2; ++round) {
    for (const char* option :
         {"max-budget-rounds=64", "MAX_BUDGET_ROUNDS=64"}) {
      JobOutcome outcome = run("cmc", option);
      EXPECT_FALSE(outcome.from_result_cache) << option;
      ASSERT_TRUE(outcome.result.status().IsInvalidArgument()) << option;
      const std::string message(outcome.result.status().message());
      EXPECT_NE(message.find("unknown option"), std::string::npos) << message;
      EXPECT_NE(message.find("max_budget_rounds"), std::string::npos)
          << message;
    }
  }
  EXPECT_EQ(scheduler.result_cache().size(), 1u);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.result_cache.hits"), 1u);
}

TEST(ServeCacheTest, ResultCacheLruHoldsExactlyCapacityEntries) {
  serve::ResultCache cache(2);
  SolveResult result;
  serve::ResultKey a, b, c;
  a.snapshot_hash = 1;
  b.snapshot_hash = 2;
  c.snapshot_hash = 3;
  cache.Insert(a, result);
  cache.Insert(b, result);
  ASSERT_EQ(cache.size(), 2u);

  // Touch `a` so `b` is the LRU victim when `c` arrives.
  ASSERT_TRUE(cache.Lookup(a).has_value());
  cache.Insert(c, result);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(a).has_value());
  EXPECT_FALSE(cache.Lookup(b).has_value());
  EXPECT_TRUE(cache.Lookup(c).has_value());

  // Re-inserting an existing key replaces in place — no growth, no evict.
  cache.Insert(a, result);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(c).has_value());
}

TEST(ServeCacheTest, CorruptedResultEntriesAreQuarantinedNotServed) {
  obs::MetricRegistry metrics;
  serve::ResultCache cache(4, &metrics);
  SolveResult result;
  result.total_cost = 12.5;
  result.covered = 9;
  result.labels = {"p1", "p2"};
  serve::ResultKey key;
  key.snapshot_hash = 99;

  // Checksums are content-sensitive: any served-back field matters.
  SolveResult tweaked = result;
  tweaked.covered = 10;
  EXPECT_NE(serve::ResultChecksum(result), serve::ResultChecksum(tweaked));

  {
    // Insert under an armed corruption fault: the stored bits are flipped
    // after the (clean) checksum was recorded.
    ScopedFaultPlan chaos(/*seed=*/3);
    chaos.plan().Arm(FaultPoint::kResultCacheCorrupt, 1.0);
    cache.Insert(key, result);
  }
  ASSERT_EQ(cache.size(), 1u);

  // The poisoned entry is never served: lookup detects the mismatch,
  // quarantines (erases) it and reports a miss.
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(metrics.CounterValue("serve.result_cache.quarantined"), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // A clean re-insert serves normally again.
  cache.Insert(key, result);
  auto served = cache.Lookup(key);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->total_cost, 12.5);
  EXPECT_EQ(metrics.CounterValue("serve.result_cache.quarantined"), 1u);
}

// ----------------------------------------------------------- scheduler ----

TEST(SolveSchedulerTest, DeterministicSolvesHitTheResultCache) {
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  InstancePtr instance = ToyInstance();

  auto first = scheduler.Enqueue(MakeJob(instance, "cwsc"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  JobOutcome cold = first->get();
  ASSERT_TRUE(cold.result.ok()) << cold.result.status().ToString();
  EXPECT_FALSE(cold.from_result_cache);

  // Same job again — and once under a different case spelling; both must be
  // served from cache with bit-identical results.
  for (const char* spelling : {"cwsc", "CWSC"}) {
    auto again = scheduler.Enqueue(MakeJob(instance, spelling));
    ASSERT_TRUE(again.ok());
    JobOutcome warm = again->get();
    ASSERT_TRUE(warm.result.ok());
    EXPECT_TRUE(warm.from_result_cache) << spelling;
    EXPECT_EQ(warm.result->labels, cold.result->labels);
    EXPECT_EQ(warm.result->total_cost, cold.result->total_cost);
  }
  EXPECT_GE(scheduler.metrics().CounterValue("serve.result_cache.hits"), 2u);

  // A different k is a different key: no false sharing.
  auto other = scheduler.Enqueue(MakeJob(instance, "cwsc", 2));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->get().from_result_cache);
}

/// A three-set snapshot whose every label and cost carries `tag`, so two
/// tags never share content and a result served for the wrong one shows.
InstancePtr TaggedInstance(int tag) {
  const std::string t = std::to_string(tag);
  SetSystem system(4);
  EXPECT_TRUE(system.AddSet({0, 1}, 1.0, "t" + t + "-low").ok());
  EXPECT_TRUE(system.AddSet({2, 3}, 2.0 + tag, "t" + t + "-high").ok());
  EXPECT_TRUE(system.AddSet({0, 1, 2, 3}, 100.0, "t" + t + "-all").ok());
  auto instance = api::InstanceSnapshot::FromSetSystem(std::move(system));
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return *instance;
}

TEST(SolveSchedulerTest, ResultsAreKeyedByContentNotSnapshotAddress) {
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);

  InstancePtr first = TaggedInstance(0);
  const auto freed = reinterpret_cast<std::uintptr_t>(first.get());
  {
    auto cold = scheduler.Enqueue(MakeJob(first, "cwsc"));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_TRUE(cold->get().result.ok());
  }
  // The worker drops its copy of the request just after completing the
  // future; free the snapshot from this thread, so this thread's allocator
  // cache holds its address.
  for (int i = 0; i < 5000 && first.use_count() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(first.use_count(), 1);
  first.reset();

  // Differently-contented snapshots until one lands at the freed address.
  std::vector<InstancePtr> misses;
  InstancePtr reused;
  for (int tag = 1; tag <= 1000; ++tag) {
    InstancePtr candidate = TaggedInstance(tag);
    if (reinterpret_cast<std::uintptr_t>(candidate.get()) == freed) {
      reused = std::move(candidate);
      break;
    }
    misses.push_back(std::move(candidate));
  }
  if (reused == nullptr) {
    GTEST_SKIP() << "the allocator never reused the freed snapshot address";
  }

  SolveJob job = MakeJob(reused, "cwsc");
  auto direct = api::SolverRegistry::Global().Solve("cwsc", job.request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto queued = scheduler.Enqueue(std::move(job));
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  JobOutcome outcome = queued->get();
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.status().ToString();
  EXPECT_FALSE(outcome.from_result_cache);
  EXPECT_EQ(outcome.result->labels, direct->labels);
  EXPECT_EQ(outcome.result->total_cost, direct->total_cost);
}

TEST(SolveSchedulerTest, DeadlineTripSurfacesPartialPayload) {
  ResetGate();
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  SolveJob job = MakeJob(ToyInstance(), "test-gated");
  job.request.deadline = std::chrono::milliseconds(20);
  job.request.label = "deadline";

  auto future = scheduler.Enqueue(std::move(job));
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  JobOutcome outcome = future->get();  // gate never opens; deadline trips

  ASSERT_FALSE(outcome.result.ok());
  EXPECT_TRUE(outcome.result.status().IsDeadlineExceeded())
      << outcome.result.status().ToString();
  const auto* partial = outcome.result.status().payload<SolveResult>();
  ASSERT_NE(partial, nullptr);
  EXPECT_EQ(partial->labels, std::vector<std::string>{"partial-deadline"});
  EXPECT_FALSE(outcome.from_result_cache);
  // A partial is a result: the job completed, it did not fail.
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.jobs.completed"), 1u);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.jobs.failed"), 0u);

  // Deadline-bearing jobs must not poison the cache: a deadline-free rerun
  // actually runs (gate open) instead of replaying the partial.
  OpenGate();
  auto rerun = scheduler.Enqueue(MakeJob(ToyInstance(), "test-gated"));
  ASSERT_TRUE(rerun.ok());
  JobOutcome full = rerun->get();
  ASSERT_TRUE(full.result.ok()) << full.result.status().ToString();
  EXPECT_FALSE(full.from_result_cache);
}

TEST(SolveSchedulerTest, DeadlineSeenAfterAStallStaysADeadline) {
  // The injected stall outlasts the 20 ms deadline many times over, so the
  // solver's first context check comes ~0.5 s late. The trip is still a
  // DeadlineExceeded carrying the solver's partial.
  ResetGate();
  ScopedFaultPlan chaos(/*seed=*/3);
  chaos.plan().Arm(FaultPoint::kSolverDelay, 1.0);
  chaos.plan().set_solver_delay_ms(500);

  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);

  SolveJob job = MakeJob(ToyInstance(), "test-gated");
  job.request.deadline = std::chrono::milliseconds(20);
  job.request.label = "stalled";
  auto future = scheduler.Enqueue(std::move(job));
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  JobOutcome outcome = future->get();  // the gate stays shut

  ASSERT_FALSE(outcome.result.ok());
  EXPECT_TRUE(outcome.result.status().IsDeadlineExceeded())
      << outcome.result.status().ToString();
  ASSERT_NE(outcome.result.status().payload<SolveResult>(), nullptr);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.faults.solver_delay"), 1u);
}

TEST(SolveSchedulerTest, MaterializationFailureRepeatsWithoutRetries) {
  // More patterns than max_patterns: the first access to the set-system
  // view fails, call_once keeps that failure, and every later job sees the
  // same status.
  pattern::EnumerateOptions enumerate;
  enumerate.max_patterns = 1;  // below the table's pattern count
  auto instance = api::InstanceSnapshot::FromTable(
      gen::MakeEntitiesTable(), pattern::CostFunction(pattern::CostKind::kMax),
      std::nullopt, enumerate);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  std::vector<JobOutcome> outcomes;
  for (int i = 0; i < 2; ++i) {
    auto future = scheduler.Enqueue(MakeJob(*instance, "cwsc"));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    outcomes.push_back(future->get());
  }
  for (const JobOutcome& outcome : outcomes) {
    ASSERT_FALSE(outcome.result.ok());
    EXPECT_TRUE(outcome.result.status().IsResourceExhausted())
        << outcome.result.status().ToString();
  }
  EXPECT_EQ(outcomes[0].result.status().message(),
            outcomes[1].result.status().message());
  // ResourceExhausted with no partial to show is a failure, not a
  // completed interruption.
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.jobs.failed"), 2u);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.jobs.completed"), 0u);
}

TEST(SolveSchedulerTest, CertifiedAndPlainSolvesNeverShareACacheEntry) {
  InstancePtr instance = ToyInstance();
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  const auto run = [&](bool certify) {
    SolveJob job = MakeJob(instance, "cwsc");
    job.request.certify = certify;
    auto future = scheduler.Enqueue(std::move(job));
    EXPECT_TRUE(future.ok()) << future.status().ToString();
    JobOutcome outcome = future->get();
    EXPECT_TRUE(outcome.result.ok()) << outcome.result.status().ToString();
    return outcome;
  };
  JobOutcome plain = run(false);
  JobOutcome certified = run(true);
  EXPECT_FALSE(certified.from_result_cache);
  ASSERT_TRUE(certified.result.ok());
  EXPECT_TRUE(certified.result->certificate.has_value());
  EXPECT_EQ(certified.result->labels, plain.result->labels);

  // Each flavour now hits its own entry and keeps its own shape.
  JobOutcome plain_again = run(false);
  JobOutcome certified_again = run(true);
  EXPECT_TRUE(plain_again.from_result_cache);
  EXPECT_FALSE(plain_again.result->certificate.has_value());
  EXPECT_TRUE(certified_again.from_result_cache);
  ASSERT_TRUE(certified_again.result->certificate.has_value());
  EXPECT_EQ(certified_again.result->certificate->lower_bound,
            certified.result->certificate->lower_bound);
}

TEST(SolveSchedulerTest, BackpressureRejectsWithResourceExhausted) {
  ResetGate();
  ThreadPool pool(2);
  serve::SchedulerOptions options;
  options.max_queue_depth = 1;
  SolveScheduler scheduler(&pool, options);

  SolveJob blocked = MakeJob(ToyInstance(), "test-gated");
  blocked.request.label = "holds-the-queue";
  auto admitted = scheduler.Enqueue(std::move(blocked));
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();

  // The queue is now at depth: the next job is refused, typed, non-blocking.
  auto rejected = scheduler.Enqueue(MakeJob(ToyInstance(), "cwsc"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_GE(scheduler.metrics().CounterValue("serve.jobs.rejected"), 1u);

  OpenGate();
  EXPECT_TRUE(admitted->get().result.ok());
  // Capacity freed: admission works again.
  auto after = scheduler.Enqueue(MakeJob(ToyInstance(), "cwsc"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->get().result.ok());
}

TEST(SolveSchedulerTest, AgedLowPriorityJobOutranksFreshHighPriority) {
  ResetGate();
  // Both workers are held at the gate while two contenders queue up; then
  // ReleaseOne frees exactly one worker, which therefore runs both
  // contenders sequentially — the pop order IS the recorded order, no race.
  ThreadPool pool(2);
  serve::SchedulerOptions options;
  options.aging_interval_seconds = 0.01;  // 10 ms of waiting = +1 level
  SolveScheduler scheduler(&pool, options);

  InstancePtr instance = ToyInstance();
  std::vector<std::future<JobOutcome>> holders;
  for (std::size_t i = 0; i < 2; ++i) {  // occupy both workers
    // Distinct k per job: result-cache keys must not collide, or the second
    // contender would be served from cache without ever "running".
    SolveJob hold = MakeJob(instance, "test-gated", /*k=*/1 + i);
    hold.request.label = "hold-" + std::to_string(i);
    auto f = scheduler.Enqueue(std::move(hold));
    ASSERT_TRUE(f.ok());
    holders.push_back(std::move(*f));
  }

  SolveJob batch_job = MakeJob(instance, "test-recorder", /*k=*/5);
  batch_job.request.label = "batch";
  batch_job.priority = 0;
  auto batch_future = scheduler.Enqueue(std::move(batch_job));
  ASSERT_TRUE(batch_future.ok());

  // Let the batch job age well past the interactive job's static edge.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  SolveJob interactive = MakeJob(instance, "test-recorder", /*k=*/6);
  interactive.request.label = "interactive";
  interactive.priority = 3;  // fresh: effective 3; batch: 0 + ~10 levels
  auto interactive_future = scheduler.Enqueue(std::move(interactive));
  ASSERT_TRUE(interactive_future.ok());

  ReleaseOne();  // one worker frees and drains both contenders in pop order
  batch_future->get();
  interactive_future->get();
  OpenGate();  // now let the remaining holder finish
  for (auto& f : holders) f.get();

  // Execution order: the aged batch job ran before the fresh interactive
  // one — a flood of high priorities cannot starve waiting work.
  std::vector<std::string> ran;
  {
    std::lock_guard<std::mutex> lock(Gate().mu);
    ran = Gate().ran;
  }
  auto pos = [&](const std::string& label) {
    for (std::size_t i = 0; i < ran.size(); ++i) {
      if (ran[i] == label) return i;
    }
    return ran.size();
  };
  ASSERT_LT(pos("batch"), ran.size());
  ASSERT_LT(pos("interactive"), ran.size());
  EXPECT_LT(pos("batch"), pos("interactive"));
}

TEST(SolveSchedulerTest, DrainStopsAdmissionAndCompletesAcceptedJobs) {
  ResetGate();
  OpenGate();  // gated jobs run through immediately
  ThreadPool pool(2);
  auto scheduler = std::make_unique<SolveScheduler>(&pool);
  InstancePtr instance = ToyInstance();

  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 8; ++i) {
    auto f = scheduler->Enqueue(MakeJob(instance, "cwsc", 3, 0.5));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  scheduler->Drain();
  EXPECT_EQ(scheduler->in_flight(), 0u);
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().result.ok());  // every accepted future completed
  }
  auto late = scheduler->Enqueue(MakeJob(instance, "cwsc"));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsCancelled()) << late.status().ToString();
  scheduler.reset();  // destructor drains again: idempotent
}

TEST(SolveSchedulerTest, UnknownSolverFailsTheJobNotTheScheduler) {
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  auto future = scheduler.Enqueue(MakeJob(ToyInstance(), "no-such-solver"));
  ASSERT_TRUE(future.ok());  // admission succeeds; the job itself fails
  JobOutcome outcome = future->get();
  EXPECT_TRUE(outcome.result.status().IsNotFound());
  EXPECT_GE(scheduler.metrics().CounterValue("serve.jobs.failed"), 1u);
}

// -------------------------------------------------------------- failures ----

TEST(SolveSchedulerTest, InjectedErrorFailsTheJobOnce) {
  ScopedFaultPlan chaos(/*seed=*/11);
  chaos.plan().Arm(FaultPoint::kSolverError, 1.0);  // every solve fails

  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);

  auto future = scheduler.Enqueue(MakeJob(ToyInstance(), "cwsc"));
  ASSERT_TRUE(future.ok());
  JobOutcome outcome = future->get();
  ASSERT_FALSE(outcome.result.ok());
  EXPECT_TRUE(outcome.result.status().IsInternal());
  EXPECT_NE(outcome.result.status().message().find("injected fault"),
            std::string::npos);
  // One admitted job, one solve attempt: the plan was asked once.
  EXPECT_EQ(chaos.plan().draws(FaultPoint::kSolverError), 1u);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.faults.solver_error"), 1u);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.jobs.failed"), 1u);
}

TEST(SolveSchedulerTest, SloHistoryRecordsEachServeEventOnce) {
  ScopedFaultPlan chaos(/*seed=*/11);
  chaos.plan().Arm(FaultPoint::kSolverError, 1.0);  // every solve fails

  ThreadPool pool(2);
  serve::SchedulerOptions options;
  // One rule no run can break: the scheduler keeps its own bounded history,
  // and interval 0 starts no pump thread.
  auto rule = serve::ParseSloRule("error_rate<=1");
  ASSERT_TRUE(rule.ok());
  options.telemetry.slo_rules.push_back(*rule);
  options.telemetry.interval_seconds = 0.0;
  SolveScheduler scheduler(&pool, options);
  ASSERT_NE(scheduler.history(), nullptr);

  auto future = scheduler.Enqueue(MakeJob(ToyInstance(), "cwsc"));
  ASSERT_TRUE(future.ok());
  EXPECT_TRUE(future->get().result.status().IsInternal());
  scheduler.Drain();

  const std::vector<obs::SpanRecord> spans = scheduler.history()->spans();
  const std::vector<obs::EventRecord> events = scheduler.history()->events();
  const auto spans_named = [&spans](const std::string& name) {
    std::vector<obs::SpanRecord> out;
    for (const obs::SpanRecord& s : spans) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  };
  const auto events_named = [&events](const std::string& name) {
    std::vector<obs::EventRecord> out;
    for (const obs::EventRecord& e : events) {
      if (e.name == name) out.push_back(e);
    }
    return out;
  };
  const std::vector<obs::SpanRecord> runs = spans_named("serve.run");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].closed());
  const std::vector<obs::SpanRecord> enqueues = spans_named("serve.enqueue");
  ASSERT_EQ(enqueues.size(), 1u);
  EXPECT_EQ(enqueues[0].value, 1.0);  // queue depth after admission
  EXPECT_EQ(spans.size(), 2u);  // solver spans stay out of the history

  EXPECT_EQ(events_named("fault/solver_error").size(), 1u);
  EXPECT_EQ(events_named("cache.miss").size(), 1u);
  for (const obs::EventRecord& e : events) {
    EXPECT_EQ(e.span, runs[0].id) << e.name;
  }
  EXPECT_EQ(events.size(), 2u);

  // No rule and no session: nothing is recorded. A caller's session is the
  // one history.
  SolveScheduler plain(&pool);
  EXPECT_EQ(plain.history(), nullptr);
  obs::TraceSession trace;
  serve::SchedulerOptions traced_options = options;
  traced_options.trace = &trace;
  SolveScheduler traced(&pool, traced_options);
  EXPECT_EQ(traced.history(), &trace);
}

TEST(SolveSchedulerTest, OwnedHistoryOutlivesEveryRecordingJob) {
  // Destroying the scheduler right after its last future resolves frees the
  // history it owns; a worker must be done recording into it by then (the
  // ASan and TSan jobs turn a late write into a failure).
  ThreadPool pool(4);
  serve::SchedulerOptions options;
  auto rule = serve::ParseSloRule("error_rate<=1");
  ASSERT_TRUE(rule.ok());
  options.telemetry.slo_rules.push_back(*rule);
  options.telemetry.interval_seconds = 0.0;
  InstancePtr instance = ToyInstance();
  for (int round = 0; round < 200; ++round) {
    auto scheduler = std::make_unique<SolveScheduler>(&pool, options);
    auto future = scheduler->Enqueue(MakeJob(instance, "cwsc"));
    ASSERT_TRUE(future.ok());
    ASSERT_TRUE(future->get().result.ok());
    const std::vector<obs::SpanRecord> spans = scheduler->history()->spans();
    for (const obs::SpanRecord& s : spans) {
      EXPECT_TRUE(s.closed()) << s.name;  // serve.run closed before get()
    }
    scheduler.reset();
  }
}

TEST(SolveSchedulerTest, InjectedThrowsBecomeTypedInternalErrors) {
  ScopedFaultPlan chaos(/*seed=*/4);
  chaos.plan().Arm(FaultPoint::kSolverThrow, 1.0);

  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  auto future = scheduler.Enqueue(MakeJob(ToyInstance(), "cwsc"));
  ASSERT_TRUE(future.ok());
  JobOutcome outcome = future->get();
  ASSERT_FALSE(outcome.result.ok());
  EXPECT_TRUE(outcome.result.status().IsInternal());
  EXPECT_NE(outcome.result.status().message().find("solver threw"),
            std::string::npos);
  EXPECT_EQ(scheduler.metrics().CounterValue("serve.faults.solver_throw"), 1u);
}

TEST(SolveSchedulerTest, ChaosReplayWithTheSameSeedFiresIdentically) {
  // Two fresh scheduler runs over the same single-threaded job sequence and
  // the same plan seed must consume and fire identical fault draws.
  auto run = [](std::uint64_t seed) {
    ScopedFaultPlan chaos(seed);
    chaos.plan().Arm(FaultPoint::kSolverError, 0.4);
    chaos.plan().Arm(FaultPoint::kResultCacheCorrupt, 0.3);

    ThreadPool pool(1);  // inline execution: a deterministic draw sequence
    SolveScheduler scheduler(&pool);
    InstancePtr instance = ToyInstance();
    std::vector<std::future<JobOutcome>> futures;
    for (int i = 0; i < 6; ++i) {
      auto future = scheduler.Enqueue(
          MakeJob(instance, i % 2 == 0 ? "cwsc" : "greedy-wsc"));
      EXPECT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
    std::vector<bool> outcomes;
    for (auto& f : futures) outcomes.push_back(f.get().result.ok());
    return std::tuple(outcomes,
                      chaos.plan().draws(FaultPoint::kSolverError),
                      chaos.plan().fires(FaultPoint::kSolverError),
                      chaos.plan().fires(FaultPoint::kResultCacheCorrupt));
  };

  const auto first = run(77);
  const auto second = run(77);
  EXPECT_EQ(first, second);
  const auto other = run(78);
  // Different seed, same draw structure: counts may coincide but the
  // decision stream is independent — just sanity-check draws happened.
  EXPECT_GT(std::get<1>(other), 0u);
}

TEST(SolveSchedulerTest, ConcurrentChaosCompletesEveryFuture) {
  ScopedFaultPlan chaos(/*seed=*/20260808);
  chaos.plan().Arm(FaultPoint::kSolverError, 0.3);
  chaos.plan().Arm(FaultPoint::kSolverThrow, 0.1);
  chaos.plan().Arm(FaultPoint::kSolverDelay, 0.2);
  chaos.plan().set_solver_delay_ms(1);
  chaos.plan().Arm(FaultPoint::kResultCacheCorrupt, 0.2);

  ThreadPool pool(4);
  SolveScheduler scheduler(&pool);
  InstancePtr instance = ToyInstance();

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 8;
  const char* const solvers[] = {"cwsc", "cmc", "greedy-wsc"};
  std::mutex futures_mu;
  std::vector<std::future<JobOutcome>> futures;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        SolveJob job = MakeJob(instance, solvers[(t + i) % 3]);
        job.request.label = "chaos-" + std::to_string(t);
        auto future = scheduler.Enqueue(std::move(job));
        ASSERT_TRUE(future.ok()) << future.status().ToString();
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(*future));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(futures.size(),
            static_cast<std::size_t>(kThreads * kJobsPerThread));

  // The core chaos gate: every admitted future completes — no deadlock, no
  // lost promise — and failures are typed, never hung.
  int ok = 0, failed = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "a future never completed under chaos";
    JobOutcome outcome = future.get();
    if (outcome.result.ok()) {
      ++ok;
      EXPECT_TRUE(outcome.result->audit.bookkeeping_consistent);
    } else {
      ++failed;
      EXPECT_TRUE(outcome.result.status().IsInternal())
          << outcome.result.status().ToString();
      EXPECT_NE(outcome.result.status().message().find("injected fault"),
                std::string::npos)
          << outcome.result.status().ToString();
    }
  }

  // Bookkeeping stays consistent under concurrency: accepted == resolved,
  // completed + failed == accepted (no double counts, no losses — counters
  // are unsigned, so any underflow would explode these equalities).
  obs::MetricRegistry& metrics = scheduler.metrics();
  const std::uint64_t accepted = metrics.CounterValue("serve.jobs.accepted");
  EXPECT_EQ(accepted, static_cast<std::uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(metrics.CounterValue("serve.jobs.completed") +
                metrics.CounterValue("serve.jobs.failed"),
            accepted);
  EXPECT_EQ(ok + failed, kThreads * kJobsPerThread);

  // Fault accounting is internally consistent, and exact: each fired
  // solver_error or solver_throw failed one job, and nothing else failed.
  for (int p = 0; p < kNumFaultPoints; ++p) {
    const FaultPoint point = static_cast<FaultPoint>(p);
    EXPECT_LE(chaos.plan().fires(point), chaos.plan().draws(point));
  }
  EXPECT_GT(chaos.plan().draws(FaultPoint::kSolverError), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(failed),
            chaos.plan().fires(FaultPoint::kSolverError) +
                chaos.plan().fires(FaultPoint::kSolverThrow));
}

// ---------------------------------------------------------------- batch ----

TEST(ServeBatchTest, ParsesRunsAndReportsCacheHits) {
  const std::string path = ::testing::TempDir() + "/serve_batch_jobs.json";
  {
    std::ofstream out(path);
    out << R"({"version": 2, "jobs": [
      {"solver": "cwsc", "k": 3, "coverage": 0.5, "label": "a", "repeat": 3},
      {"solver": "cmc", "k": 3, "coverage": 0.5,
       "options": {"b": 2, "strict": false}, "priority": 1}
    ]})";
  }
  InstancePtr instance = ToyInstance();
  auto spec = serve::ParseBatchSpec(path, instance);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::vector<SolveJob>& jobs = spec->jobs;
  ASSERT_EQ(jobs.size(), 4u);  // 3 repeats + 1
  EXPECT_EQ(jobs[0].request.label, "a");
  EXPECT_EQ(jobs[3].priority, 1);
  EXPECT_EQ(jobs[3].request.options.items().at("b"), "2");
  EXPECT_TRUE(spec->forward.empty());

  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  auto report = serve::RunBatch(*std::move(spec), scheduler);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const serve::JsonValue* aggregate = report->Find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->Find("total_jobs")->as_number(), 4.0);
  EXPECT_EQ(aggregate->Find("failed")->as_number(), 0.0);
  // The "a" repeats dedupe through the result cache (the first run fills
  // it; concurrent racers may miss, so >= 1 hit, not == 2).
  EXPECT_GE(aggregate->Find("result_cache_hits")->as_number(), 1.0);
  ASSERT_NE(report->Find("jobs"), nullptr);
  EXPECT_EQ(report->Find("jobs")->as_array().size(), 4u);

  // All four jobs agree on the report being serializable and reparseable.
  auto reparsed = serve::ParseJson(report->Dump());
  ASSERT_TRUE(reparsed.ok());
}

TEST(ServeBatchTest, ReportEchoesUnknownRootAndJobKeys) {
  const std::string path = ::testing::TempDir() + "/serve_batch_forward.json";
  {
    std::ofstream out(path);
    out << R"({"version": 2, "note": "kept",
      "jobs": [{"solver": "cwsc", "k": 3, "coverage": 0.5, "hint": 7},
               {"solver": "cwsc", "k": 3, "coverage": 0.5, "certify": true}]})";
  }
  auto spec = serve::ParseBatchSpec(path, ToyInstance());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  auto report = serve::RunBatch(*std::move(spec), scheduler);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const serve::JsonValue* forward = report->Find("forward");
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(forward->Find("note"), nullptr);
  EXPECT_EQ(forward->Find("note")->as_string(), "kept");
  ASSERT_NE(forward->Find("jobs[0].hint"), nullptr);
  EXPECT_EQ(forward->Find("jobs[0].hint")->as_number(), 7.0);
  EXPECT_EQ(forward->as_object().size(), 2u);  // certify is no unknown key

  // Only the certifying job reports the certificate fields.
  const serve::JsonArray& jobs = report->Find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].Find("lower_bound"), nullptr);
  EXPECT_EQ(jobs[0].Find("certified_ratio"), nullptr);
  ASSERT_NE(jobs[1].Find("lower_bound"), nullptr);
  EXPECT_LE(jobs[1].Find("lower_bound")->as_number(),
            jobs[1].Find("total_cost")->as_number());
  EXPECT_GE(jobs[1].Find("certified_ratio")->as_number(), 1.0);
}

// A report entry names its solver as the registry spells it; a name the
// registry does not know is echoed as sent, beside an error naming it.
TEST(ServeBatchTest, ReportEchoesTheCanonicalSolverName) {
  const std::string path = ::testing::TempDir() + "/serve_batch_names.json";
  {
    std::ofstream out(path);
    out << R"({"version": 2, "jobs": [
      {"solver": "CMC", "k": 3, "coverage": 0.5},
      {"solver": "No-Such-Solver", "k": 3, "coverage": 0.5}]})";
  }
  auto spec = serve::ParseBatchSpec(path, ToyInstance());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);
  auto report = serve::RunBatch(*std::move(spec), scheduler);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const serve::JsonArray& jobs = report->Find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].Find("solver")->as_string(), "cmc");
  EXPECT_TRUE(jobs[0].Find("ok")->as_bool()) << jobs[0].Dump();
  EXPECT_EQ(jobs[1].Find("solver")->as_string(), "No-Such-Solver");
  EXPECT_FALSE(jobs[1].Find("ok")->as_bool());
  EXPECT_NE(jobs[1].Find("error")->Find("message")->as_string().find(
                "No-Such-Solver"),
            std::string::npos)
      << jobs[1].Dump();
}

TEST(ServeBatchTest, MalformedBatchFilesAreTypedErrors) {
  const std::string path = ::testing::TempDir() + "/serve_batch_bad.json";
  InstancePtr instance = ToyInstance();
  {
    std::ofstream out(path);
    out << R"({"version": 2, "jobs": [{"k": 3}]})";  // no solver
  }
  const Status missing_solver = serve::ParseBatchSpec(path, instance).status();
  EXPECT_TRUE(missing_solver.IsInvalidArgument());
  EXPECT_NE(missing_solver.message().find("jobs[0] needs a string \"solver\""),
            std::string::npos)
      << missing_solver.ToString();
  {
    std::ofstream out(path);
    out << R"({"version": 2, "work": []})";  // wrong top-level key
  }
  const Status no_jobs = serve::ParseBatchSpec(path, instance).status();
  EXPECT_TRUE(no_jobs.IsInvalidArgument());
  EXPECT_NE(no_jobs.message().find("\"jobs\" array"), std::string::npos)
      << no_jobs.ToString();
  EXPECT_FALSE(serve::ParseBatchSpec("/nonexistent.json", instance).ok());
  std::remove(path.c_str());
}

TEST(ServeBatchTest, VersionlessAndV1BatchFilesAreRejected) {
  const std::string path = ::testing::TempDir() + "/serve_batch_v1.json";
  InstancePtr instance = ToyInstance();
  for (const char* head : {"", R"("version": 1, )"}) {
    {
      std::ofstream out(path);
      out << "{" << head << R"("jobs": [{"solver": "cwsc", "k": 3}]})";
    }
    const Status status = serve::ParseBatchSpec(path, instance).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << head << status.ToString();
    EXPECT_NE(status.message().find("version 2"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(ServeBatchTest, MissingBatchFileIsATypedNotFound) {
  auto missing =
      serve::ParseBatchSpec("/no/such/dir/jobs.json", ToyInstance());
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_NE(missing.status().message().find("cannot open"),
            std::string::npos);
}

TEST(ServeBatchTest, FaultSpecParsesAndArmsAPlan) {
  const std::string path = ::testing::TempDir() + "/serve_batch_faults.json";
  {
    std::ofstream out(path);
    out << R"({"version": 2,
               "faults": {"seed": 42, "solver_delay_ms": 2,
                "points": {"solver_error": 0.25, "solver_delay": 0.5}},
               "jobs": [{"solver": "cwsc"}]})";
  }
  InstancePtr instance = ToyInstance();
  auto spec = serve::ParseBatchSpec(path, instance);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->jobs.size(), 1u);
  ASSERT_TRUE(spec->faults.configured);
  EXPECT_EQ(spec->faults.seed, 42u);
  EXPECT_EQ(spec->faults.solver_delay_ms, 2u);

  FaultPlan plan(spec->faults.seed);
  spec->faults.ApplyTo(plan);
  EXPECT_DOUBLE_EQ(plan.probability(FaultPoint::kSolverError), 0.25);
  EXPECT_DOUBLE_EQ(plan.probability(FaultPoint::kSolverDelay), 0.5);
  EXPECT_DOUBLE_EQ(plan.probability(FaultPoint::kSolverThrow), 0.0);
  EXPECT_EQ(plan.solver_delay_ms(), 2u);

  // Unknown fault points and out-of-range probabilities are typed errors.
  {
    std::ofstream out(path);
    out << R"({"version": 2, "faults": {"points": {"bogus_point": 0.5}},)"
        << R"( "jobs": []})";
  }
  const Status bogus = serve::ParseBatchSpec(path, instance).status();
  EXPECT_TRUE(bogus.IsInvalidArgument());
  EXPECT_NE(bogus.message().find("bogus_point"), std::string::npos)
      << bogus.ToString();
  // A batch file naming a removed point fails loudly and lists the
  // accepted points.
  for (const char* removed :
       {"pool_task_loss", "snapshot_materialize", "snapshot_alloc"}) {
    {
      std::ofstream out(path);
      out << R"({"version": 2, "faults": {"points": {")" << removed
          << R"(": 0.5}}, "jobs": []})";
    }
    const Status status = serve::ParseBatchSpec(path, instance).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << removed;
    EXPECT_NE(status.message().find(
                  "accepted: solver_error, solver_throw, solver_delay, "
                  "result_cache_corrupt"),
              std::string::npos)
        << status.ToString();
  }
  {
    std::ofstream out(path);
    out << R"({"version": 2, "faults": {"points": {"solver_error": 1.5}},)"
        << R"( "jobs": []})";
  }
  const Status too_likely = serve::ParseBatchSpec(path, instance).status();
  EXPECT_TRUE(too_likely.IsInvalidArgument());
  EXPECT_NE(too_likely.message().find("faults.points.solver_error"),
            std::string::npos)
      << too_likely.ToString();
}

TEST(ServeBatchTest, FaultIntegersAreRangeChecked) {
  const std::string path = ::testing::TempDir() + "/serve_batch_fault_ints.json";
  InstancePtr instance = ToyInstance();
  // Casting these doubles to an unsigned integer would be undefined
  // behaviour (-1, 1e300) or truncate silently (2.5).
  for (const char* field : {"seed", "solver_delay_ms"}) {
    for (const char* value : {"-1", "2.5", "1e300"}) {
      {
        std::ofstream out(path);
        out << R"({"version": 2, "faults": {")" << field << R"(": )"
            << value << R"(}, "jobs": []})";
      }
      const Status status = serve::ParseBatchSpec(path, instance).status();
      EXPECT_TRUE(status.IsInvalidArgument())
          << field << "=" << value << ": " << status.ToString();
      EXPECT_NE(status.message().find(std::string("faults.") + field),
                std::string::npos)
          << status.ToString();
    }
  }
  std::remove(path.c_str());
}

TEST(ServeBatchTest, ChaosBatchReportsEachInjectedFailureOnce) {
  const std::string path = ::testing::TempDir() + "/serve_batch_chaos.json";
  {
    std::ofstream out(path);
    out << R"({"version": 2,
               "faults": {"seed": 7, "points": {"solver_error": 1.0}},
               "jobs": [{"solver": "cwsc", "label": "doomed"}]})";
  }
  InstancePtr instance = ToyInstance();
  auto spec = serve::ParseBatchSpec(path, instance);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  ThreadPool pool(2);
  SolveScheduler scheduler(&pool);

  ScopedFaultPlan chaos(spec->faults.seed);
  spec->faults.ApplyTo(chaos.plan());
  auto report = serve::RunBatch(*std::move(spec), scheduler);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(chaos.plan().fires(FaultPoint::kSolverError), 1u);

  const serve::JsonValue* aggregate = report->Find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->Find("failed")->as_number(), 1.0);

  const serve::JsonValue* jobs = report->Find("jobs");
  ASSERT_NE(jobs, nullptr);
  const serve::JsonValue& job = jobs->as_array().at(0);
  EXPECT_EQ(job.Find("ok")->as_bool(), false);
  const serve::JsonValue* error = job.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->as_string(), "Internal");
  EXPECT_NE(error->Find("message")->as_string().find("injected fault"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scwsc
