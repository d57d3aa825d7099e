// BENCH_serve_soak — an open-loop soak of live multi-tenant serving.
//
// One set-system snapshot published as head "live" in a SnapshotStore,
// three tenants with weighted fair shares, and a Poisson request stream
// (open loop: arrival times are drawn up front and honored regardless of
// how the scheduler keeps up) interleaved with live deltas that advance
// the head every few arrivals. A shadow copy of the set system replays
// every mutation so each published version can be rebuilt from scratch and
// compared bit for bit.
//
// Gates (exit 1 on any failure), written to BENCH_serve_soak.json:
//   g1 bit-identity: at EVERY delta version, the delta-applied snapshot's
//      content hash equals a from-scratch rebuild over the shadow system —
//      and a reference solve on both agrees;
//   g2 zero starvation: every tenant's jobs all complete with at least one
//      success per tenant, and no tenant's share of dispatches collapses
//      (weighted-fair dequeue holds under the mixed stream);
//   g3 p99 SLO: end-to-end p99 latency stays under the (scale-adjusted)
//      bound, and the telemetry pump evaluated a tenant-scoped SLO rule;
//   g4 replaced versions released: once the scheduler has drained and its
//      pool is joined, of every version the store published only the head
//      is alive (neither the store nor the scheduler keeps a replaced
//      version, so a long soak's memory is bounded by its head plus the
//      versions in-flight jobs hold).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/delta.h"
#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/api/solver.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/core/set_system.h"
#include "src/serve/json.h"
#include "src/serve/scheduler.h"
#include "src/serve/server.h"
#include "src/serve/slo.h"

namespace scwsc {
namespace {

constexpr std::uint64_t kSeed = 20260808;
constexpr double kMeanInterArrivalSeconds = 0.004;
constexpr std::size_t kArrivalsPerDelta = 8;

/// Universe and request-count scale with SCWSC_BENCH_SCALE like every other
/// bench; the floor keeps the soak meaningful at CI's 0.02.
std::size_t Universe() {
  return 64 * std::max<std::size_t>(
                  8, static_cast<std::size_t>(160.0 * bench::ScaleFactor()));
}

std::size_t NumArrivals() {
  return std::max<std::size_t>(
      48, static_cast<std::size_t>(2000.0 * bench::ScaleFactor()));
}

SetSystem BaseSystem(std::size_t universe, Rng& rng) {
  SetSystem system(universe);
  // Block sets guarantee feasibility; random sets give greedy real choices.
  for (std::size_t block = 0; block < universe / 64; ++block) {
    std::vector<ElementId> elements;
    for (std::size_t e = block * 64; e < (block + 1) * 64; ++e) {
      elements.push_back(static_cast<ElementId>(e));
    }
    if (!system
             .AddSet(std::move(elements), 1.0 + rng.NextDouble(),
                     "block-" + std::to_string(block))
             .ok()) {
      std::abort();
    }
  }
  for (std::size_t extra = 0; extra < universe / 32; ++extra) {
    std::vector<ElementId> elements;
    const std::size_t size = 8 + rng.NextBounded(56);
    for (std::size_t i = 0; i < size; ++i) {
      elements.push_back(static_cast<ElementId>(rng.NextBounded(universe)));
    }
    if (!system
             .AddSet(std::move(elements), 0.5 + rng.NextDouble(),
                     "extra-" + std::to_string(extra))
             .ok()) {
      std::abort();
    }
  }
  return system;
}

api::InstancePtr Snapshot(const SetSystem& system) {
  SetSystem copy(system.num_elements());
  for (const WeightedSet& s : system.sets()) {
    if (!copy.AddSet(s.elements, s.cost, s.label).ok()) std::abort();
  }
  auto instance = api::InstanceSnapshot::FromSetSystem(std::move(copy));
  if (!instance.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", instance.status().ToString().c_str());
    std::abort();
  }
  return *instance;
}

/// A random mutation, replayed into `shadow`: one new set confined to a
/// 64-element block, and on every fourth delta also the removal of a tail
/// set (which renumbers the later ids).
api::SnapshotDelta NextDelta(std::size_t universe, std::size_t version,
                             SetSystem& shadow, Rng& rng) {
  api::SnapshotDelta delta;
  if (version % 4 == 0 && shadow.num_sets() > 4) {
    const SetId victim =
        static_cast<SetId>(shadow.num_sets() - 1 - rng.NextBounded(3));
    delta.remove_sets.push_back(victim);
  }
  api::SnapshotDelta::SetAdd add;
  const std::size_t block = rng.NextBounded(universe / 64);
  const std::size_t size = 4 + rng.NextBounded(28);
  for (std::size_t i = 0; i < size; ++i) {
    add.elements.push_back(
        static_cast<ElementId>(block * 64 + rng.NextBounded(64)));
  }
  add.cost = 0.5 + rng.NextDouble();
  add.label = "delta-" + std::to_string(version);
  delta.add_sets.push_back(add);

  // Replay into the shadow: survivors in id order, then the append — the
  // same rebuild order ApplyDelta documents.
  SetSystem next(shadow.num_elements());
  for (SetId id = 0; id < shadow.num_sets(); ++id) {
    bool removed = false;
    for (const SetId r : delta.remove_sets) removed = removed || r == id;
    if (removed) continue;
    const WeightedSet& s = shadow.set(id);
    if (!next.AddSet(s.elements, s.cost, s.label).ok()) std::abort();
  }
  if (!next.AddSet(add.elements, add.cost, add.label).ok()) std::abort();
  shadow = std::move(next);
  return delta;
}

std::vector<std::string> ReferenceSolve(const api::InstancePtr& instance) {
  auto request = api::SolveRequest::Builder(instance)
                     .WithK(8)
                     .WithCoverage(0.5)
                     .Build();
  if (!request.ok()) std::abort();
  auto result =
      api::SolverRegistry::Global().Solve("greedy-wsc", *request, nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "reference solve: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return result->labels;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

}  // namespace

int Run(const char* out_path) {
  Rng rng(kSeed);
  const std::size_t universe = Universe();
  const std::size_t arrivals = NumArrivals();
  SetSystem shadow = BaseSystem(universe, rng);

  // Tenants: acme gets 3x the fair share of beta/gamma; quotas unlimited
  // (starvation, not admission, is under test here).
  const std::vector<std::pair<std::string, double>> tenants = {
      {"acme", 3.0}, {"beta", 1.0}, {"gamma", 1.0}};
  serve::SchedulerOptions scheduler_options;
  scheduler_options.tenant.enabled = true;
  for (const auto& [name, weight] : tenants) {
    serve::TenantQuota quota;
    quota.weight = weight;
    scheduler_options.tenant.quotas[name] = quota;
  }
  {
    auto rule = serve::ParseSloRule("tenant=acme:p99_latency_ms<=60000");
    if (!rule.ok()) std::abort();
    scheduler_options.telemetry.slo_rules.push_back(*std::move(rule));
    scheduler_options.telemetry.interval_seconds = 0.1;
  }

  // Heap-held so that gate g4 can join its workers.
  auto pool = std::make_unique<ThreadPool>(2);
  serve::SolveScheduler scheduler(pool.get(), scheduler_options);
  serve::SnapshotStore store;
  // Every version the store publishes, watched without being kept alive.
  std::vector<std::weak_ptr<const api::InstanceSnapshot>> published;
  {
    api::InstancePtr root = Snapshot(shadow);
    published.push_back(root);
    if (!store.Put("live", std::move(root)).ok()) std::abort();
  }

  // The open-loop schedule: Poisson arrivals drawn up front.
  std::vector<double> arrival_at(arrivals);
  double clock = 0.0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    clock += -kMeanInterArrivalSeconds * std::log(1.0 - rng.NextDouble());
    arrival_at[i] = clock;
  }

  struct Pending {
    std::string tenant;
    std::future<serve::JobOutcome> future;
  };
  std::vector<Pending> pending;
  pending.reserve(arrivals);

  bool bit_identity_ok = true;
  std::size_t deltas_applied = 0;

  Stopwatch wall;
  for (std::size_t i = 0; i < arrivals; ++i) {
    const double until = arrival_at[i] - wall.ElapsedSeconds();
    if (until > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(until));
    }

    // A live delta every kArrivalsPerDelta arrivals, verified against the
    // shadow rebuild immediately (gate g1) — the serving loop keeps going.
    if (i > 0 && i % kArrivalsPerDelta == 0) {
      ++deltas_applied;
      const api::SnapshotDelta delta =
          NextDelta(universe, deltas_applied, shadow, rng);
      auto applied = store.Apply("live", delta);
      if (!applied.ok()) {
        std::fprintf(stderr, "delta %zu: %s\n", deltas_applied,
                     applied.status().ToString().c_str());
        bit_identity_ok = false;
        continue;
      }
      published.push_back(applied->snapshot);
      const api::InstancePtr rebuilt = Snapshot(shadow);
      if (rebuilt->content_hash() != applied->snapshot->content_hash()) {
        std::fprintf(stderr, "delta %zu: hash mismatch vs rebuild\n",
                     deltas_applied);
        bit_identity_ok = false;
      } else if (ReferenceSolve(rebuilt) !=
                 ReferenceSolve(applied->snapshot)) {
        std::fprintf(stderr, "delta %zu: solve mismatch vs rebuild\n",
                     deltas_applied);
        bit_identity_ok = false;
      }
    }

    // Weighted tenant mix: acme arrives 3x as often, matching its share.
    const double pick = rng.NextDouble() * 5.0;
    const std::string& tenant =
        pick < 3.0 ? tenants[0].first
                   : (pick < 4.0 ? tenants[1].first : tenants[2].first);
    auto head = store.Get("live");
    if (!head.ok()) std::abort();
    auto request = api::SolveRequest::Builder(*head)
                       .WithK(6)
                       .WithCoverage(
                           0.4 + 0.002 * static_cast<double>(
                                             rng.NextBounded(50)))
                       .WithLabel("soak-" + std::to_string(i))
                       .WithTenant(tenant)
                       .Build();
    if (!request.ok()) std::abort();
    serve::SolveJob job;
    job.solver = "greedy-wsc";
    job.request = *std::move(request);
    auto future = scheduler.Enqueue(std::move(job));
    if (!future.ok()) {
      std::fprintf(stderr, "enqueue %zu: %s\n", i,
                   future.status().ToString().c_str());
      continue;
    }
    pending.push_back(Pending{tenant, std::move(*future)});
  }

  // Drain: every admitted future must resolve (no starvation, no loss).
  std::map<std::string, std::size_t> completed, succeeded;
  std::map<std::string, double> worst_latency;
  std::vector<double> latencies;
  for (Pending& p : pending) {
    serve::JobOutcome outcome = p.future.get();
    const double latency = outcome.queue_seconds + outcome.run_seconds;
    latencies.push_back(latency);
    ++completed[p.tenant];
    if (outcome.result.ok()) ++succeeded[p.tenant];
    worst_latency[p.tenant] = std::max(worst_latency[p.tenant], latency);
  }
  const double wall_seconds = wall.ElapsedSeconds();
  scheduler.FlushTelemetry();
  scheduler.Drain();

  // A worker releases its job, and with it the job's snapshot, only after
  // the job's future is ready, so join the pool before counting the
  // published versions still alive. The drained scheduler submits no more
  // tasks and stays, so a version it kept would count.
  pool.reset();
  std::size_t versions_alive = 0;
  for (const auto& version : published) {
    if (!version.expired()) ++versions_alive;
  }

  const double p99 = Percentile(latencies, 0.99);
  // Generous under CI noise; the gate is "bounded", not "fast".
  const double p99_bound_seconds = 5.0;

  bool no_starvation = true;
  for (const auto& [name, weight] : tenants) {
    if (completed[name] == 0 || succeeded[name] == 0) no_starvation = false;
  }
  if (pending.size() != latencies.size()) no_starvation = false;

  const bool g1 = bit_identity_ok && deltas_applied > 0;
  const bool g2 = no_starvation;
  const bool g3 = p99 <= p99_bound_seconds &&
                  scheduler.telemetry() != nullptr &&
                  scheduler.telemetry()->ticks() > 0;
  const bool g4 = versions_alive == 1 && !published.back().expired();

  serve::JsonObject gates;
  gates["g1_bit_identity_every_version"] = serve::JsonValue(g1);
  gates["g2_zero_tenant_starvation"] = serve::JsonValue(g2);
  gates["g3_p99_slo"] = serve::JsonValue(g3);
  gates["g4_replaced_versions_released"] = serve::JsonValue(g4);

  serve::JsonObject tenants_obj;
  for (const auto& [name, weight] : tenants) {
    serve::JsonObject t;
    t["weight"] = serve::JsonValue(weight);
    t["completed"] = serve::JsonValue(completed[name]);
    t["succeeded"] = serve::JsonValue(succeeded[name]);
    t["worst_latency_seconds"] = serve::JsonValue(worst_latency[name]);
    tenants_obj[name] = serve::JsonValue(std::move(t));
  }

  serve::JsonObject root;
  root["bench"] = serve::JsonValue("serve_soak");
  root["scale"] = serve::JsonValue(bench::ScaleFactor());
  root["universe"] = serve::JsonValue(universe);
  root["arrivals"] = serve::JsonValue(arrivals);
  root["deltas_applied"] = serve::JsonValue(deltas_applied);
  root["versions_published"] = serve::JsonValue(published.size());
  root["versions_alive"] = serve::JsonValue(versions_alive);
  root["wall_seconds"] = serve::JsonValue(wall_seconds);
  root["p50_latency_seconds"] = serve::JsonValue(Percentile(latencies, 0.5));
  root["p99_latency_seconds"] = serve::JsonValue(p99);
  root["p99_bound_seconds"] = serve::JsonValue(p99_bound_seconds);
  root["gates"] = serve::JsonValue(std::move(gates));
  root["tenants"] = serve::JsonValue(std::move(tenants_obj));

  const serve::JsonValue report(std::move(root));
  if (auto written = serve::WriteJsonFile(report, out_path); !written.ok()) {
    std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.Dump().c_str());
  const bool all = g1 && g2 && g3 && g4;
  std::printf("# serve_soak: %zu arrivals, %zu deltas, p99 %.3fs -> %s\n",
              arrivals, deltas_applied, p99, all ? "PASS" : "FAIL");
  return all ? 0 : 1;
}

}  // namespace scwsc

int main(int argc, char** argv) {
  return scwsc::Run(argc > 1 ? argv[1] : "BENCH_serve_soak.json");
}
