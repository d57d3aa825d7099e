// Batch front end over the SolveScheduler: parse a jobs.json file into
// SolveJobs, run them all through a scheduler, and render a report with
// per-job results plus aggregate throughput, latency percentiles and cache
// hit rates. The CLI's --batch flag and the serve smoke in check.sh are the
// two callers.
//
// Batch file format (docs/serving.md documents it in full):
//
//   {"version": 2,                   // required (serve/wire.h)
//    "jobs": [
//      {"solver": "cwsc",            // required; case-insensitive
//       "k": 3,                      // default 10
//       "coverage": 0.5,             // default 0.3
//       "options": {"b": "2"},       // values: string, number or bool
//       "deadline_ms": 0,            // default 0 = unlimited
//       "priority": 0,               // default 0; larger = more urgent
//       "label": "warmup",           // default "job-<index>"
//       "certify": false,            // accuracy certificate (set systems)
//       "repeat": 1}                 // duplicates this job N times
//   ],
//    "faults": {                     // optional: scripted chaos (fault.h)
//      "seed": 42,                   // default 0; deterministic replay
//      "solver_delay_ms": 5,         // default 5; fired solver_delay stall
//      "points": {"solver_error": 0.1, "solver_delay": 0.02}},
//    "slo": {                        // optional: telemetry + SLO rules
//      "rules": ["p99_latency_ms<=250", "error_rate<=0.01"],  // slo.h
//      "interval_ms": 250,           // telemetry tick period
//      "dump_path": "trace.json"}}   // history dump on violation
//
// Repeated deterministic jobs are the point: they exercise the result
// cache, which the report's aggregate section makes visible. A "faults"
// object arms a FaultPlan the CLI installs (scoped) around the batch run,
// so chaos storms are scriptable from the same file as the workload. An
// "slo" object turns on the scheduler's TelemetryPump for the run (the CLI
// combines it with --telemetry-out / --slo flags); the report's aggregate
// then carries "slo_violations".

#ifndef SCWSC_SERVE_BATCH_H_
#define SCWSC_SERVE_BATCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/serve/json.h"
#include "src/serve/scheduler.h"
#include "src/serve/slo.h"

namespace scwsc {
namespace serve {

/// Parsed "faults" object: which points to arm and with what probability.
/// Data-only so a spec can be parsed, inspected and applied separately
/// (the CLI applies it to a ScopedFaultPlan around the batch run).
struct FaultSpec {
  /// True when the batch file carried a "faults" object at all.
  bool configured = false;
  std::uint64_t seed = 0;
  std::uint64_t solver_delay_ms = 5;
  /// Per-point fire probability, indexed by FaultPoint; 0 = disarmed.
  std::array<double, kNumFaultPoints> probabilities{};

  /// Arms `plan` with this spec's probabilities and delay.
  void ApplyTo(FaultPlan& plan) const;
};

/// Parsed "slo" object: telemetry settings for the run. Data-only like
/// FaultSpec — the CLI merges it with its --telemetry-out / --slo flags
/// into the scheduler's TelemetryOptions.
struct SloSpec {
  /// True when the batch file carried an "slo" object at all.
  bool configured = false;
  std::vector<SloRule> rules;
  double interval_ms = 250.0;
  /// History dump destination on violation; empty = derive from the JSONL
  /// path (see TelemetryOptions::slo_dump_path).
  std::string dump_path;
};

/// Everything a batch file describes: the jobs plus the optional fault
/// plan and telemetry/SLO settings to run them under.
struct BatchSpec {
  std::vector<SolveJob> jobs;
  FaultSpec faults;
  SloSpec slo;
  /// Unknown keys ("jobs[3].hint", "notes"), echoed under "forward" in the
  /// report so newer clients' fields round-trip instead of vanishing.
  JsonObject forward;
};

/// Parses a batch file into jobs over `instance` (every job in one batch
/// shares the snapshot the frontend loaded) plus the optional fault and
/// telemetry specs. A file without "version": 2 is InvalidArgument.
/// "repeat" expands here, so the scheduler sees plain jobs.
Result<BatchSpec> ParseBatchSpec(const std::string& path,
                                 api::InstancePtr instance);

/// Enqueues every job of `spec`, waits for all futures, and renders the
/// report (root "version" = 2; failed jobs carry the typed "error"
/// envelope of serve/wire.h, never a free-text status; the spec's unknown
/// keys come back under "forward"). Jobs rejected by admission control
/// (queue full, tenant quota) are reported as failed with their typed
/// error rather than aborting the batch. The caller installs the spec's
/// fault plan and telemetry, if any.
Result<JsonValue> RunBatch(BatchSpec spec, SolveScheduler& scheduler);

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_BATCH_H_
