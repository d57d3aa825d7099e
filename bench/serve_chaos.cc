// BENCH_chaos — an open-loop chaos soak of the serve path.
//
// One synthetic trace, one shared snapshot, and a mixed deterministic
// workload run three ways:
//
//  * serial: a plain registry loop computing the fingerprint of every
//    (solver, k, ŝ) in the workload. No faults, no scheduler.
//  * fault-free: a default scheduler with NO FaultPlan installed. This arm
//    must be bit-identical to serial.
//  * chaos: the same workload under an installed, seeded FaultPlan arming
//    every injection point at once (solver errors/throws/delays and
//    result-cache corruption). The scheduler runs each admitted job once.
//
// Gates (exit 1 on any failure), written to BENCH_chaos.json:
//   g1 every chaos future completes (no deadlock, no lost promise);
//   g2 exact failure accounting: failed jobs == fires(solver_error) +
//      fires(solver_throw). Each such fire fails the one job that drew it,
//      and nothing else may fail (delays and cache corruption never do);
//   g3 zero corrupt results served: every successful outcome fingerprints
//      identically to the serial solve of its own request;
//   g4 p99 run latency of every successful chaos job within 2x the
//      fault-free arm's p99 (plus a floor for timer noise);
//   g5 the fault-free arm is bit-identical to serial;
//   g6 the chaos arm runs under a telemetry pump with a deliberately
//      untenable latency SLO: the storm must produce at least one recorded
//      violation whose auto-dumped SLO-history trace is valid
//      Chrome-trace JSON;
//   g7 the per-solver latency sketches merged across the chaos arm agree
//      with the exact nearest-rank p99 of the same samples within the
//      sketch's stated relative-error bound.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/sketch.h"
#include "src/serve/cache.h"
#include "src/serve/json.h"
#include "src/serve/scheduler.h"
#include "src/serve/slo.h"

namespace scwsc {
namespace {

struct Combo {
  std::string solver;
  std::size_t k = 0;
  double coverage = 0.0;
};

constexpr std::size_t kRepeats = 6;       // jittered requests per base combo
constexpr std::size_t kChaosPasses = 3;   // the soak re-enqueues the list
constexpr std::uint64_t kDefaultSeed = 20260808;

// Per-solve probabilities for the storm. Errors and throws fail the job
// that draws them (gate g2); delays and cache corruption must not.
constexpr double kPErr = 0.10, kPThrow = 0.02, kPDelay = 0.05, kPCorrupt = 0.10;
constexpr double kLatencyFloorSeconds = 0.05;

/// The base combos, expanded so every repeat is a distinct request (a small
/// coverage jitter). Pass 1 of the soak therefore runs real solves through
/// the injection points; later passes repeat the same requests and exercise
/// the result cache (and its corruption point) instead.
std::vector<Combo> Workload() {
  const std::vector<Combo> base = {
      {"cwsc", 6, 0.5},
      {"cwsc", 8, 0.7},
      {"cmc", 6, 0.5},
      {"greedy-wsc", 6, 0.5},
      {"greedy-max-coverage", 8, 0.8},
  };
  std::vector<Combo> expanded;
  for (const Combo& combo : base) {
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      Combo jittered = combo;
      jittered.coverage += 0.002 * static_cast<double>(rep);
      expanded.push_back(jittered);
    }
  }
  return expanded;
}

struct Fingerprint {
  std::vector<std::string> labels;
  double total_cost = 0.0;
  std::size_t covered = 0;

  bool operator==(const Fingerprint& other) const {
    return labels == other.labels && total_cost == other.total_cost &&
           covered == other.covered;
  }
};

Fingerprint FingerprintOf(const api::SolveResult& result) {
  return {result.labels, result.total_cost, result.covered};
}

serve::SolveJob MakeJob(const api::InstancePtr& instance, const Combo& combo,
                        std::size_t pass, std::size_t repeat) {
  serve::SolveJob job;
  job.solver = combo.solver;
  auto request = api::SolveRequest::Builder(instance)
                     .WithK(combo.k)
                     .WithCoverage(combo.coverage)
                     .WithLabel(combo.solver + "-p" + std::to_string(pass) +
                                "-r" + std::to_string(repeat))
                     .Build();
  SCWSC_CHECK(request.ok(), "bad bench request: %s",
              request.status().ToString().c_str());
  job.request = *std::move(request);
  return job;
}

std::string KeyOf(const Combo& combo) {
  return combo.solver + "/" + std::to_string(combo.k) + "/" +
         std::to_string(combo.coverage);
}

/// Serial fingerprint of each workload combo under its own solver: the one
/// result a successful job may serve.
std::map<std::string, Fingerprint> SerialFingerprints(
    const api::InstancePtr& instance, const std::vector<Combo>& combos) {
  std::map<std::string, Fingerprint> serial;  // KeyOf(combo) -> print
  for (const Combo& combo : combos) {
    if (serial.count(KeyOf(combo)) != 0) continue;
    serve::SolveJob job = MakeJob(instance, combo, 0, 0);
    auto result = api::SolverRegistry::Global().Solve(job.solver, job.request);
    SCWSC_CHECK(result.ok(), "serial %s failed: %s", combo.solver.c_str(),
                result.status().ToString().c_str());
    serial[KeyOf(combo)] = FingerprintOf(*result);
  }
  return serial;
}

struct ArmStats {
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t incomplete = 0;      // futures that never resolved (gate g1)
  std::size_t corrupt_served = 0;  // ok results unlike their serial print
  double wall_seconds = 0.0;
  std::vector<double> success_latencies;  // sorted run_seconds
  // Sorted queue+run seconds of EVERY resolved future — the same values the
  // scheduler feeds its serve.latency_seconds sketches, so the sketch
  // accuracy gate (g7) compares like with like.
  std::vector<double> all_latencies;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Pushes `passes` copies of the workload through `scheduler` open-loop
/// (every job enqueued before any future is waited on) and audits the
/// outcomes against the serial fingerprints.
ArmStats RunArm(const api::InstancePtr& instance,
                const std::vector<Combo>& combos, std::size_t passes,
                serve::SolveScheduler& scheduler,
                const std::map<std::string, Fingerprint>& serial) {
  struct Pending {
    Combo combo;
    std::future<serve::JobOutcome> future;
  };
  std::vector<Pending> pending;
  ArmStats stats;
  Stopwatch wall;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < combos.size(); ++i) {
      auto future = scheduler.Enqueue(MakeJob(instance, combos[i], pass, i));
      SCWSC_CHECK(future.ok(), "enqueue rejected: %s",
                  future.status().ToString().c_str());
      pending.push_back(Pending{combos[i], std::move(*future)});
    }
  }
  stats.jobs = pending.size();

  for (Pending& p : pending) {
    // Gate g1: the future must complete. 120s is far beyond any legitimate
    // solve here; a miss means a lost promise or a deadlock.
    if (p.future.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
      ++stats.incomplete;
      continue;
    }
    serve::JobOutcome outcome = p.future.get();
    stats.all_latencies.push_back(outcome.queue_seconds +
                                  outcome.run_seconds);
    if (!outcome.result.ok()) {
      ++stats.failed;
      continue;
    }
    ++stats.ok;

    // Gate g3: the served result must match the serial solve of its own
    // request. Anything else is a corrupt result escaping the caches.
    const auto it = serial.find(KeyOf(p.combo));
    if (it == serial.end() || it->second != FingerprintOf(*outcome.result)) {
      ++stats.corrupt_served;
    }

    // Gate g4 sample: every successful job.
    stats.success_latencies.push_back(outcome.run_seconds);
  }
  stats.wall_seconds = wall.ElapsedSeconds();
  std::sort(stats.success_latencies.begin(), stats.success_latencies.end());
  std::sort(stats.all_latencies.begin(), stats.all_latencies.end());
  return stats;
}

serve::JsonValue ArmJson(const ArmStats& stats) {
  serve::JsonObject arm;
  arm["jobs"] = stats.jobs;
  arm["ok"] = stats.ok;
  arm["failed"] = stats.failed;
  arm["incomplete"] = stats.incomplete;
  arm["corrupt_served"] = stats.corrupt_served;
  arm["wall_seconds"] = stats.wall_seconds;
  arm["p99_success_seconds"] = Percentile(stats.success_latencies, 0.99);
  return serve::JsonValue(std::move(arm));
}

}  // namespace
}  // namespace scwsc

int main(int argc, char** argv) {
  using namespace scwsc;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_chaos.json";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : kDefaultSeed;

  bench::PrintBanner("serve_chaos",
                     "serve layer under a seeded fault storm");

  const std::size_t rows = bench::ScaledRows(20000);
  api::InstancePtr instance = bench::MakeTraceSnapshot(20000);
  const std::vector<Combo> combos = Workload();

  // Serial fingerprints first, while no plan is installed.
  const std::map<std::string, Fingerprint> serial =
      SerialFingerprints(instance, combos);

  // Arm 1 — fault-free: a default scheduler, no plan installed.
  ThreadPool pool(0);  // hardware concurrency
  ArmStats faultfree;
  {
    serve::SolveScheduler scheduler(&pool);
    faultfree = RunArm(instance, combos, 1, scheduler, serial);
  }

  // Arm 2 — chaos: same workload, every injection point armed, and the
  // telemetry pump running with an untenable latency SLO (1 microsecond
  // p99) so the storm is guaranteed to trip at least one violation and
  // auto-dump the scheduler's SLO history (gate g6).
  ArmStats chaos_stats;
  serve::JsonObject fired;
  std::uint64_t failing_fires = 0;  // fires(solver_error) + fires(solver_throw)
  std::uint64_t results_quarantined = 0;
  std::uint64_t slo_violations = 0;
  std::vector<std::string> slo_dumps;
  obs::QuantileSketch merged_latency;
  bool have_latency_sketch = false;
  const std::string telemetry_jsonl = out_path + ".telemetry.jsonl";
  const std::string slo_dump_path = out_path + ".slo_trace.json";
  {
    ScopedFaultPlan chaos(seed);
    chaos.plan().Arm(FaultPoint::kSolverError, kPErr);
    chaos.plan().Arm(FaultPoint::kSolverThrow, kPThrow);
    chaos.plan().Arm(FaultPoint::kSolverDelay, kPDelay);
    chaos.plan().set_solver_delay_ms(1);
    chaos.plan().Arm(FaultPoint::kResultCacheCorrupt, kPCorrupt);

    serve::SchedulerOptions chaos_options;
    serve::TelemetryOptions& tel = chaos_options.telemetry;
    tel.interval_seconds = 0.05;
    tel.jsonl_path = telemetry_jsonl;
    tel.slo_dump_path = slo_dump_path;
    auto rule = serve::ParseSloRule("p99_latency_ms<=0.001");
    SCWSC_CHECK(rule.ok(), "slo rule: %s",
                rule.status().ToString().c_str());
    tel.slo_rules.push_back(std::move(rule).value());

    serve::SolveScheduler scheduler(&pool, chaos_options);
    chaos_stats = RunArm(instance, combos, kChaosPasses, scheduler, serial);
    scheduler.FlushTelemetry();

    obs::MetricRegistry& metrics = scheduler.metrics();
    slo_violations = metrics.CounterValue("serve.slo.violations");
    if (scheduler.telemetry() != nullptr) {
      slo_dumps = scheduler.telemetry()->dump_paths();
    }
    // Merge every per-solver latency sketch member for gate g7; the merged
    // view is exactly what the pump's SLO evaluation sees.
    for (const auto& [name, sketch] : metrics.SketchValues()) {
      if (name.rfind("serve.latency_seconds#", 0) != 0) continue;
      if (!have_latency_sketch) {
        merged_latency = sketch;
        have_latency_sketch = true;
      } else {
        const Status merged = merged_latency.Merge(sketch);
        SCWSC_CHECK(merged.ok(), "sketch merge: %s",
                    merged.ToString().c_str());
      }
    }
    results_quarantined =
        metrics.CounterValue("serve.result_cache.quarantined");
    failing_fires = chaos.plan().fires(FaultPoint::kSolverError) +
                    chaos.plan().fires(FaultPoint::kSolverThrow);
    for (int p = 0; p < kNumFaultPoints; ++p) {
      const FaultPoint point = static_cast<FaultPoint>(p);
      serve::JsonObject entry;
      entry["draws"] = chaos.plan().draws(point);
      entry["fires"] = chaos.plan().fires(point);
      fired[FaultPointToString(point)] = serve::JsonValue(std::move(entry));
    }
  }

  // --- gates ---------------------------------------------------------------
  const bool g1_complete = chaos_stats.incomplete == 0;

  const bool g2_failures_exact = chaos_stats.failed == failing_fires;

  const bool g3_no_corruption = chaos_stats.corrupt_served == 0;

  const double baseline_p99 = Percentile(faultfree.success_latencies, 0.99);
  const double chaos_p99 = Percentile(chaos_stats.success_latencies, 0.99);
  const double latency_bound =
      std::max(2.0 * baseline_p99, kLatencyFloorSeconds);
  const bool g4_latency = chaos_p99 <= latency_bound;

  const bool g5_faultfree_clean = faultfree.incomplete == 0 &&
                                  faultfree.failed == 0 &&
                                  faultfree.corrupt_served == 0;

  // Gate g6: the untenable SLO tripped, and the auto-dumped trace is valid
  // Chrome-trace JSON (an object carrying traceEvents).
  bool g6_slo_dump = slo_violations >= 1 && !slo_dumps.empty();
  if (g6_slo_dump) {
    auto dump = serve::ReadJsonFile(slo_dumps.front());
    g6_slo_dump = dump.ok() && dump->is_object() &&
                  dump->Find("traceEvents") != nullptr;
  }

  // Gate g7: the merged latency sketch's p99 agrees with the exact
  // nearest-rank p99 of the identical sample set within the sketch's
  // stated relative error (plus an absolute epsilon for sub-trackable
  // values).
  const double exact_p99 = Percentile(chaos_stats.all_latencies, 0.99);
  const double sketch_p99 =
      have_latency_sketch ? merged_latency.Quantile(0.99) : -1.0;
  const double sketch_alpha =
      have_latency_sketch ? merged_latency.relative_error()
                          : obs::QuantileSketch::kDefaultRelativeError;
  const double sketch_bound = sketch_alpha * exact_p99 + 1e-9;
  const bool g7_sketch_accurate =
      have_latency_sketch &&
      merged_latency.count() == chaos_stats.all_latencies.size() &&
      std::abs(sketch_p99 - exact_p99) <= sketch_bound;

  serve::JsonObject report;
  report["rows"] = rows;
  report["seed"] = static_cast<std::size_t>(seed);
  report["threads"] = static_cast<std::size_t>(pool.size());
  report["fault_free"] = ArmJson(faultfree);
  report["chaos"] = ArmJson(chaos_stats);
  report["failing_fires"] = failing_fires;
  report["baseline_p99_seconds"] = baseline_p99;
  report["chaos_p99_seconds"] = chaos_p99;
  report["latency_bound_seconds"] = latency_bound;
  report["faults"] = serve::JsonValue(std::move(fired));
  report["results_quarantined"] = results_quarantined;
  report["slo_violations"] = slo_violations;
  report["slo_dump"] = slo_dumps.empty() ? std::string() : slo_dumps.front();
  report["telemetry_jsonl"] = telemetry_jsonl;
  report["exact_p99_seconds"] = exact_p99;
  report["sketch_p99_seconds"] = sketch_p99;
  report["sketch_p99_bound_seconds"] = sketch_bound;
  serve::JsonObject gates;
  gates["all_futures_completed"] = g1_complete;
  gates["failures_match_fires"] = g2_failures_exact;
  gates["zero_corrupt_served"] = g3_no_corruption;
  gates["success_p99_bounded"] = g4_latency;
  gates["fault_free_arm_clean"] = g5_faultfree_clean;
  gates["slo_violation_dumped"] = g6_slo_dump;
  gates["sketch_p99_within_bound"] = g7_sketch_accurate;
  report["gates"] = serve::JsonValue(std::move(gates));
  const bool pass = g1_complete && g2_failures_exact && g3_no_corruption &&
                    g4_latency && g5_faultfree_clean && g6_slo_dump &&
                    g7_sketch_accurate;
  report["pass"] = pass;

  Status written =
      serve::WriteJsonFile(serve::JsonValue(std::move(report)), out_path);
  SCWSC_CHECK(written.ok(), "writing %s: %s", out_path.c_str(),
              written.ToString().c_str());

  bench::PrintCsvRow(
      "serve_chaos",
      {"jobs=" + std::to_string(chaos_stats.jobs),
       "failed=" + std::to_string(chaos_stats.failed),
       "failing_fires=" + std::to_string(failing_fires),
       "quarantined=" + std::to_string(results_quarantined),
       "slo_violations=" + std::to_string(slo_violations),
       "pass=" + std::string(pass ? "1" : "0")});
  std::printf("# report -> %s\n", out_path.c_str());
  if (!slo_dumps.empty()) {
    std::printf("# slo trace -> %s\n", slo_dumps.front().c_str());
  }

  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: chaos gates: complete=%d failures=%d corruption=%d "
                 "latency=%d fault_free=%d slo_dump=%d sketch_p99=%d\n",
                 g1_complete, g2_failures_exact, g3_no_corruption, g4_latency,
                 g5_faultfree_clean, g6_slo_dump, g7_sketch_accurate);
    return 1;
  }
  return 0;
}
