// scwsc_cli — solve size-constrained weighted set cover on a CSV file.
//
// Usage:
//   scwsc_cli --input data.csv --measure Cost [options]
//   scwsc_cli --list-solvers
//
// Options:
//   --input PATH        CSV file (header row; one column is the measure)
//   --measure NAME      numeric measure column used for pattern weights
//   --solver NAME       any registered solver (see --list-solvers)
//                                                         [default opt-cwsc]
//   --k N               maximum number of patterns        [default 10]
//   --coverage F        coverage fraction in [0,1]        [default 0.3]
//   --cost max|sum|lp   pattern cost function             [default max]
//   --lp P              exponent for --cost lp            [default 2]
//   --opt KEY=VALUE     solver-specific option (repeatable; unknown keys
//                       are rejected with the accepted list)
//   --hierarchy flat    attach flat attribute hierarchies, enabling the
//                       hierarchical solvers (hcwsc, hcmc)
//   --delimiter C       CSV delimiter                     [default ,]
//   --deadline-ms N     wall-clock budget; 0 = unlimited  [default 0]
//   --trace-out PATH    write a Chrome trace-event JSON of the solve
//                       (load in Perfetto or chrome://tracing)
//   --metrics-out PATH  write solver metrics as JSON (or CSV when PATH
//                       ends in .csv)
//   --batch PATH        run a jobs.json file through the SolveScheduler
//                       instead of a single solve (see docs/serving.md).
//                       A top-level "faults" object installs a seeded
//                       FaultPlan for the run; each job still runs once.
//   --batch-out PATH    where --batch writes its JSON report
//                                               [default batch_results.json]
//   --threads N         scheduler worker threads for --batch; 0 = all cores
//   --telemetry-out P   continuous telemetry for --batch: a JSONL time
//                       series appended at P plus a Prometheus text
//                       exposition rewritten at P.prom each tick
//   --slo RULE          SLO rule evaluated each telemetry tick
//                       (repeatable; e.g. "p99_latency_ms<=250",
//                       "error_rate<=0.01" — see docs/observability.md).
//                       Violations bump serve.slo.violations and dump the
//                       scheduler's serve-path history (spans and events
//                       of the jobs before the violation) as Chrome-trace
//                       JSON. Combines with a batch file's "slo" object. A
//                       "tenant=NAME:" prefix scopes the rule to that
//                       tenant's metrics.
//   --serve PORT        run the socket front end (docs/serving.md) over the
//                       loaded instance, published as snapshot "live";
//                       0 picks an ephemeral port (printed). Ctrl-C stops.
//   --tenant NAME       tenant id stamped on the single-solve request
//   --tenant-quota NAME=RATE[:BURST[:WEIGHT]]
//                       per-tenant admission quota (requests/second) and
//                       fair-share weight for --batch / --serve; any use
//                       enables tenant-aware scheduling (repeatable)
//   --json              with --list-solvers: machine-readable OptionsSpec
//                       tables (the same schema the socket server's
//                       list_solvers request returns)
//
// Ctrl-C requests cooperative cancellation: the solver stops at its next
// check point and the best-so-far solution is printed.
//
// Output: one line per selected pattern, then a summary line. Exit code 0
// on success, 1 on error or infeasibility, 2 when a deadline or Ctrl-C
// interrupted the run (a best-so-far partial solution is still printed).

#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/run_context.h"
#include "src/common/thread_pool.h"
#include "src/serve/batch.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

#include "src/scwsc.h"

using namespace scwsc;

namespace {

struct CliArgs {
  std::string input;
  std::string measure;
  bool list_solvers = false;
  bool json = false;        // --list-solvers --json: machine-readable form
  std::string solver = "opt-cwsc";
  std::size_t k = 10;
  double coverage = 0.3;
  std::string cost = "max";
  double lp = 2.0;
  std::vector<std::string> opts;  // raw key=value items
  bool flat_hierarchy = false;
  char delimiter = ',';
  std::uint64_t deadline_ms = 0;  // 0 = unlimited
  std::string trace_out;    // empty = tracing off
  std::string metrics_out;  // empty = no metrics dump
  std::string batch;        // jobs.json path; empty = single-solve mode
  std::string batch_out = "batch_results.json";
  std::string telemetry_out;            // JSONL path; empty = no telemetry
  std::vector<std::string> slo_rules;   // raw --slo values, parsed later
  unsigned threads = 0;     // 0 = hardware concurrency
  std::string tenant;       // single-solve tenant id (wire "tenant" field)
  /// Raw --tenant-quota NAME=RATE[:BURST[:WEIGHT]] items; any present
  /// enables the scheduler's tenant policy for --batch / --serve.
  std::vector<std::string> tenant_quotas;
  int serve_port = -1;  // --serve PORT; -1 = not serving, 0 = ephemeral
};

/// Shared by the solver (deadline) and the SIGINT handler (cancellation).
/// RequestCancel is async-signal-safe: a relaxed store plus one CAS.
RunContext g_run_context;

extern "C" void HandleSigint(int) { g_run_context.RequestCancel(); }

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(run with --help for usage)\n",
               message.c_str());
  return 1;
}

void PrintUsage() {
  std::printf(
      "scwsc_cli --input data.csv --measure COLUMN [--solver NAME] [--k N]\n"
      "          [--coverage F] [--cost max|sum|lp] [--lp P]\n"
      "          [--opt KEY=VALUE]... [--hierarchy flat] [--delimiter C]\n"
      "          [--deadline-ms N] [--trace-out PATH] [--metrics-out PATH]\n"
      "          [--batch jobs.json [--batch-out PATH] [--threads N]\n"
      "           [--telemetry-out PATH] [--slo RULE]...]\n"
      "          [--serve PORT [--tenant-quota NAME=RATE[:BURST[:WEIGHT]]]...]\n"
      "          [--tenant NAME]\n"
      "scwsc_cli --list-solvers [--json]\n");
}

int ListSolvers(bool as_json) {
  if (as_json) {
    // Machine-readable form: the same OptionsSpec tables the socket
    // server's list_solvers request returns (serve::SolverListToJson), so
    // scripts and socket clients read one schema.
    std::printf("%s\n", serve::SolverListToJson().Dump().c_str());
    return 0;
  }
  std::printf("%-22s %-32s %s\n", "NAME", "CAPABILITIES", "SUMMARY");
  for (const api::SolverInfo& info : api::SolverRegistry::Global().List()) {
    std::printf("%-22s %-32s %s\n", info.name.c_str(),
                api::CapabilitiesToString(info.capabilities).c_str(),
                info.summary.c_str());
    // One line per option, straight from the registered OptionsSpec.
    for (const api::OptionSpec& opt : info.options) {
      std::string meta(api::OptionTypeToString(opt.type));
      if (opt.required) {
        meta += ", required";
      } else {
        meta += ", default " + opt.default_value;
      }
      std::printf("%-22s   --opt %s=<%s>  %s\n", "", opt.name.c_str(),
                  meta.c_str(), opt.help.c_str());
    }
  }
  return 0;
}

/// Applies one flag that takes a value. NotFound when `flag` is not one.
Status ApplyValueFlag(const std::string& flag, const std::string& value,
                      CliArgs& args) {
  if (flag == "--input") {
    args.input = value;
  } else if (flag == "--measure") {
    args.measure = value;
  } else if (flag == "--solver") {
    args.solver = value;
  } else if (flag == "--k") {
    SCWSC_ASSIGN_OR_RETURN(auto k, ParseU64(value));
    args.k = static_cast<std::size_t>(k);
  } else if (flag == "--coverage") {
    SCWSC_ASSIGN_OR_RETURN(args.coverage, ParseDouble(value));
  } else if (flag == "--cost") {
    args.cost = value;
  } else if (flag == "--lp") {
    SCWSC_ASSIGN_OR_RETURN(args.lp, ParseDouble(value));
  } else if (flag == "--opt") {
    args.opts.push_back(value);
  } else if (flag == "--hierarchy") {
    if (value != "flat") {
      return Status::InvalidArgument("--hierarchy only supports 'flat'");
    }
    args.flat_hierarchy = true;
  } else if (flag == "--deadline-ms") {
    SCWSC_ASSIGN_OR_RETURN(args.deadline_ms, ParseU64(value));
  } else if (flag == "--trace-out") {
    args.trace_out = value;
  } else if (flag == "--metrics-out") {
    args.metrics_out = value;
  } else if (flag == "--batch") {
    args.batch = value;
  } else if (flag == "--batch-out") {
    args.batch_out = value;
  } else if (flag == "--telemetry-out") {
    args.telemetry_out = value;
  } else if (flag == "--slo") {
    // Parse eagerly so a typo fails at the command line, not mid-batch.
    SCWSC_ASSIGN_OR_RETURN(serve::SloRule parsed, serve::ParseSloRule(value));
    (void)parsed;
    args.slo_rules.push_back(value);
  } else if (flag == "--threads") {
    SCWSC_ASSIGN_OR_RETURN(auto threads, ParseU64(value));
    args.threads = static_cast<unsigned>(threads);
  } else if (flag == "--tenant") {
    args.tenant = value;
  } else if (flag == "--tenant-quota") {
    args.tenant_quotas.push_back(value);
  } else if (flag == "--serve") {
    SCWSC_ASSIGN_OR_RETURN(auto port, ParseU64(value));
    if (port > 65535) {
      return Status::InvalidArgument("--serve port must be <= 65535");
    }
    args.serve_port = static_cast<int>(port);
  } else if (flag == "--delimiter") {
    if (value.size() != 1) {
      return Status::InvalidArgument("--delimiter takes one character");
    }
    args.delimiter = value[0];
  } else {
    return Status::NotFound("unknown flag " + flag);
  }
  return Status::OK();
}

Result<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    }
    if (flag == "--list-solvers") {
      args.list_solvers = true;
      continue;
    }
    if (flag == "--json") {
      args.json = true;
      continue;
    }
    // An unknown flag is reported as such even when it comes last.
    const bool has_value = i + 1 < argc;
    const Status applied =
        ApplyValueFlag(flag, has_value ? argv[++i] : "", args);
    if (applied.IsNotFound()) {
      return Status::InvalidArgument(std::string(applied.message()));
    }
    if (!has_value) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    SCWSC_RETURN_NOT_OK(applied);
  }
  if (args.list_solvers) return args;  // no input needed
  if (args.input.empty()) return Status::InvalidArgument("--input required");
  if (args.measure.empty()) {
    return Status::InvalidArgument("--measure required");
  }
  return args;
}

/// Parses --tenant-quota NAME=RATE[:BURST[:WEIGHT]] items into a policy;
/// any item enables tenancy for the scheduler modes (--batch, --serve).
Result<serve::TenantPolicy> MakeTenantPolicy(const CliArgs& args) {
  serve::TenantPolicy policy;
  for (const std::string& raw : args.tenant_quotas) {
    const std::size_t eq = raw.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(
          "--tenant-quota expects NAME=RATE[:BURST[:WEIGHT]], got '" + raw +
          "'");
    }
    const std::string name = raw.substr(0, eq);
    serve::TenantQuota quota;
    std::vector<double> parts;
    std::size_t begin = eq + 1;
    while (begin <= raw.size()) {
      const std::size_t colon = raw.find(':', begin);
      const std::string piece =
          raw.substr(begin, colon == std::string::npos ? colon : colon - begin);
      SCWSC_ASSIGN_OR_RETURN(double parsed, ParseDouble(piece));
      parts.push_back(parsed);
      if (colon == std::string::npos) break;
      begin = colon + 1;
    }
    if (parts.empty() || parts.size() > 3) {
      return Status::InvalidArgument(
          "--tenant-quota takes 1-3 ':'-separated numbers after '='");
    }
    quota.rate_per_second = parts[0];
    if (parts.size() > 1) quota.burst = parts[1];
    if (parts.size() > 2) quota.weight = parts[2];
    policy.quotas[name] = quota;
    policy.enabled = true;
  }
  return policy;
}

Result<pattern::CostFunction> MakeCost(const CliArgs& args) {
  if (args.cost == "max") {
    return pattern::CostFunction(pattern::CostKind::kMax);
  }
  if (args.cost == "sum") {
    return pattern::CostFunction(pattern::CostKind::kSum);
  }
  if (args.cost == "lp") return pattern::CostFunction::LpNorm(args.lp);
  return Status::InvalidArgument("unknown cost function '" + args.cost + "'");
}

void PrintResult(std::size_t num_rows, const api::SolveResult& result) {
  for (const std::string& label : result.labels) {
    std::printf("%s\n", label.c_str());
  }
  std::printf("# %zu patterns, total cost %s, covered %zu/%zu (%.2f%%)\n",
              result.labels.size(), FormatNumber(result.total_cost).c_str(),
              result.covered, num_rows,
              100.0 * static_cast<double>(result.covered) /
                  static_cast<double>(num_rows == 0 ? 1 : num_rows));
}

void PrintCounters(const std::string& solver, const api::SolveResult& result) {
  std::string extras;
  const api::SolveCounters& c = result.counters;
  if (c.budget_rounds > 0) {
    extras += StrFormat(", %zu budget rounds (B = %s)", c.budget_rounds,
                        FormatNumber(c.final_budget).c_str());
  }
  if (c.nodes > 0) {
    extras += StrFormat(", %llu branch-and-bound nodes",
                        static_cast<unsigned long long>(c.nodes));
  }
  if (c.sets_considered > 0) {
    extras += StrFormat(", %zu candidates considered", c.sets_considered);
  }
  if (c.lp_lower_bound > 0.0) {
    extras += StrFormat(", LP lower bound %s (size excess %zu)",
                        FormatNumber(c.lp_lower_bound).c_str(),
                        c.cardinality_violation);
  }
  std::printf("# %s: %.3fs%s\n", solver.c_str(), result.seconds,
              extras.c_str());
}

/// --batch mode: run every job in a jobs.json file through a SolveScheduler
/// over the already-loaded instance, write the JSON report, and print a
/// one-line aggregate summary. Exit code 0 when every job succeeded.
int RunBatchMode(const CliArgs& args, api::InstancePtr instance) {
  auto spec = serve::ParseBatchSpec(args.batch, instance);
  if (!spec.ok()) return Fail(spec.status().ToString());
  const std::size_t num_jobs = spec->jobs.size();

  std::optional<obs::TraceSession> trace;
  if (!args.trace_out.empty() || !args.metrics_out.empty()) trace.emplace();

  ThreadPool pool(args.threads);  // 0 = hardware concurrency
  serve::SchedulerOptions scheduler_options;
  scheduler_options.trace = trace.has_value() ? &*trace : nullptr;
  {
    auto tenant_policy = MakeTenantPolicy(args);
    if (!tenant_policy.ok()) return Fail(tenant_policy.status().ToString());
    scheduler_options.tenant = *std::move(tenant_policy);
  }

  // Telemetry: the batch file's "slo" object and the --telemetry-out /
  // --slo flags merge into one pump configuration.
  const bool want_telemetry = spec->slo.configured ||
                              !args.telemetry_out.empty() ||
                              !args.slo_rules.empty();
  if (want_telemetry) {
    serve::TelemetryOptions& tel = scheduler_options.telemetry;
    tel.jsonl_path = args.telemetry_out;
    if (!args.telemetry_out.empty()) {
      tel.prom_path = args.telemetry_out + ".prom";
    }
    tel.interval_seconds =
        (spec->slo.configured ? spec->slo.interval_ms : 250.0) / 1000.0;
    tel.slo_rules = spec->slo.rules;
    for (const std::string& raw : args.slo_rules) {
      auto rule = serve::ParseSloRule(raw);  // validated at parse time
      if (rule.ok()) tel.slo_rules.push_back(*std::move(rule));
    }
    tel.slo_dump_path = spec->slo.dump_path;
  }
  serve::SolveScheduler scheduler(&pool, scheduler_options);

  // The fault plan stays installed for exactly the span of the batch run.
  std::optional<ScopedFaultPlan> chaos;
  if (spec->faults.configured) {
    chaos.emplace(spec->faults.seed);
    spec->faults.ApplyTo(chaos->plan());
  }

  auto report = serve::RunBatch(std::move(*spec), scheduler);
  if (!report.ok()) return Fail(report.status().ToString());
  if (Status s = serve::WriteJsonFile(*report, args.batch_out); !s.ok()) {
    return Fail(s.ToString());
  }

  if (trace.has_value() && !args.trace_out.empty()) {
    if (Status s = obs::WriteChromeTraceJson(*trace, args.trace_out);
        !s.ok()) {
      std::fprintf(stderr, "warning: --trace-out: %s\n", s.ToString().c_str());
    }
  }
  if (trace.has_value() && !args.metrics_out.empty()) {
    if (Status s = obs::WriteMetricsFile(trace->metrics(), args.metrics_out);
        !s.ok()) {
      std::fprintf(stderr, "warning: --metrics-out: %s\n",
                   s.ToString().c_str());
    }
  }

  const serve::JsonValue* aggregate = report->Find("aggregate");
  double failed = 0.0, jobs_per_second = 0.0, result_hits = 0.0;
  if (aggregate != nullptr) {
    if (const auto* v = aggregate->Find("failed")) failed = v->as_number();
    if (const auto* v = aggregate->Find("jobs_per_second")) {
      jobs_per_second = v->as_number();
    }
    if (const auto* v = aggregate->Find("result_cache_hits")) {
      result_hits = v->as_number();
    }
  }
  std::printf(
      "# batch: %zu jobs on %u threads, %.1f jobs/s, %.0f result-cache hits, "
      "%.0f failed -> %s\n",
      num_jobs, pool.size(), jobs_per_second, result_hits, failed,
      args.batch_out.c_str());
  if (want_telemetry && aggregate != nullptr) {
    double violations = 0.0;
    if (const auto* v = aggregate->Find("slo_violations")) {
      violations = v->as_number();
    }
    std::printf("# telemetry: %.0f SLO violation(s)%s%s\n", violations,
                args.telemetry_out.empty() ? "" : " -> ",
                args.telemetry_out.c_str());
  }
  return failed > 0.0 ? 1 : 0;
}

/// --serve mode: publish the loaded instance as snapshot "live" and run the
/// socket front end (docs/serving.md) until SIGINT. Solve and delta
/// requests name it with "snapshot": "live"; deltas advance the head
/// in-place while in-flight solves keep the version they resolved.
int RunServeMode(const CliArgs& args, api::InstancePtr instance) {
  ThreadPool pool(args.threads);  // 0 = hardware concurrency
  serve::SchedulerOptions scheduler_options;
  {
    auto tenant_policy = MakeTenantPolicy(args);
    if (!tenant_policy.ok()) return Fail(tenant_policy.status().ToString());
    scheduler_options.tenant = *std::move(tenant_policy);
  }
  const bool want_telemetry =
      !args.telemetry_out.empty() || !args.slo_rules.empty();
  if (want_telemetry) {
    serve::TelemetryOptions& tel = scheduler_options.telemetry;
    tel.jsonl_path = args.telemetry_out;
    if (!args.telemetry_out.empty()) {
      tel.prom_path = args.telemetry_out + ".prom";
    }
    tel.interval_seconds = 0.25;
    for (const std::string& raw : args.slo_rules) {
      auto rule = serve::ParseSloRule(raw);  // validated at parse time
      if (rule.ok()) tel.slo_rules.push_back(*std::move(rule));
    }
  }
  serve::SolveScheduler scheduler(&pool, scheduler_options);
  serve::SnapshotStore store;
  if (Status s = store.Put("live", std::move(instance)); !s.ok()) {
    return Fail(s.ToString());
  }

  serve::ServerOptions server_options;
  server_options.port = args.serve_port;
  serve::SolveServer server(&scheduler, &store, server_options);
  if (Status s = server.Start(); !s.ok()) return Fail(s.ToString());
  std::printf("# serving snapshot \"live\" on 127.0.0.1:%d (Ctrl-C stops)\n",
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSigint);
  while (g_run_context.Check() == TripKind::kNone) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  scheduler.Drain();
  std::printf("# serve: stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) return Fail(args.status().ToString());
  if (args->list_solvers) return ListSolvers(args->json);

  csv::ReadOptions read_opts;
  read_opts.measure_column = args->measure;
  read_opts.delimiter = args->delimiter;
  auto table = csv::ReadFile(args->input, read_opts);
  if (!table.ok()) return Fail(table.status().ToString());

  auto cost_fn = MakeCost(*args);
  if (!cost_fn.ok()) return Fail(cost_fn.status().ToString());

  const std::size_t num_rows = table->num_rows();
  std::optional<hierarchy::TableHierarchy> hier;
  if (args->flat_hierarchy) hier = hierarchy::TableHierarchy::Flat(*table);
  auto instance = api::InstanceSnapshot::FromTable(
      *std::move(table), *std::move(cost_fn), std::move(hier));
  if (!instance.ok()) return Fail(instance.status().ToString());

  if (args->serve_port >= 0) return RunServeMode(*args, *instance);
  if (!args->batch.empty()) return RunBatchMode(*args, *instance);

  auto built = api::SolveRequest::Builder(*instance)
                   .WithK(args->k)
                   .WithCoverage(args->coverage)
                   .WithOptions(args->opts)
                   .WithLabel("cli")
                   .WithTenant(args->tenant)
                   .Build();
  if (!built.ok()) return Fail(built.status().ToString());
  api::SolveRequest request = *std::move(built);

  if (args->deadline_ms > 0) {
    g_run_context.SetDeadline(std::chrono::milliseconds(args->deadline_ms));
  }
  std::signal(SIGINT, HandleSigint);

  // One trace session per solve; written out on success AND on interruption
  // so a deadline-trimmed run still leaves its profile behind.
  std::optional<obs::TraceSession> trace;
  if (!args->trace_out.empty() || !args->metrics_out.empty()) {
    trace.emplace();
    request.trace = &*trace;
  }
  auto write_observability = [&] {
    if (!trace.has_value()) return;
    if (!args->trace_out.empty()) {
      if (Status s = obs::WriteChromeTraceJson(*trace, args->trace_out);
          !s.ok()) {
        std::fprintf(stderr, "warning: --trace-out: %s\n",
                     s.ToString().c_str());
      }
    }
    if (!args->metrics_out.empty()) {
      if (Status s = obs::WriteMetricsFile(trace->metrics(),
                                           args->metrics_out);
          !s.ok()) {
        std::fprintf(stderr, "warning: --metrics-out: %s\n",
                     s.ToString().c_str());
      }
    }
  };

  auto result = api::SolverRegistry::Global().Solve(args->solver, request,
                                                    &g_run_context);
  write_observability();
  if (!result.ok()) {
    const Status& status = result.status();
    if (const auto* partial = status.payload<api::SolveResult>();
        partial != nullptr && status.IsInterruption()) {
      PrintResult(num_rows, *partial);
      std::printf("# interrupted (%s): best-so-far solution above, %zu "
                  "patterns chosen, %zu rows covered\n",
                  TripKindToString(partial->provenance.trip),
                  partial->provenance.sets_chosen,
                  partial->provenance.coverage_reached);
      std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
      return 2;
    }
    return Fail(status.ToString());
  }

  PrintResult(num_rows, *result);
  PrintCounters(args->solver, *result);
  return 0;
}
