// EXP-MICRO — google-benchmark micro-benchmarks of the core greedy engine:
// marginal-benefit maintenance, lazy selection, coverage-target math and
// whole-solver throughput on random set systems.
//
// Invoked with --engine-compare the binary instead times the paper-verbatim
// Fig. 1/2 implementations (src/core/literal.h: full marginal-benefit
// subtraction scans per pick) against the benefit engine (lazy CELF
// recounts over density-chosen packed rows) on a dense synthetic instance,
// plus the engine with a live trace session, checks all three return
// identical solutions, and writes BENCH_core.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/core/baselines.h"
#include "src/core/benefit_engine.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/greedy_state.h"
#include "src/core/instances.h"
#include "src/core/literal.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace {

SetSystem MakeRandom(std::size_t elements, std::size_t sets,
                     std::size_t max_size) {
  Rng rng(7);
  RandomSystemSpec spec;
  spec.num_elements = elements;
  spec.num_sets = sets;
  spec.max_set_size = max_size;
  auto system = RandomSetSystem(spec, rng);
  return std::move(system).value();
}

void BM_EngineSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SetSystem system = MakeRandom(n, n / 2, 16);
  for (auto _ : state) {
    state.PauseTiming();
    BenefitEngine engine(system);
    state.ResumeTiming();
    for (SetId id = 0; id < system.num_sets(); id += 7) {
      benchmark::DoNotOptimize(engine.Select(id));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(system.num_sets() / 7));
}
BENCHMARK(BM_EngineSelect)->Arg(1000)->Arg(10'000)->Arg(100'000);

void BM_LazySelectorDrain(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::size_t> counts(m);
  for (auto& c : counts) c = 1 + rng.NextBounded(1000);
  for (auto _ : state) {
    LazySelector selector;
    for (SetId id = 0; id < m; ++id) {
      selector.Push(MakeBenefitKey(counts[id], 1.0, id));
    }
    std::size_t drained = 0;
    while (selector
               .Pop([&](SetId id) -> std::optional<SelectionKey> {
                 return MakeBenefitKey(counts[id], 1.0, id);
               })
               .has_value()) {
      ++drained;
    }
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_LazySelectorDrain)->Arg(1000)->Arg(100'000);

void BM_CoverageTarget(benchmark::State& state) {
  double f = 0.0;
  std::size_t total = 0;
  for (auto _ : state) {
    f += 1e-7;
    total += SetSystem::CoverageTarget(f - std::floor(f), 700'000);
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_CoverageTarget);

void BM_CwscEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SetSystem system = MakeRandom(n, n, 12);
  for (auto _ : state) {
    auto solution = RunCwsc(system, {10, 0.3});
    benchmark::DoNotOptimize(solution);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CwscEndToEnd)->Arg(1000)->Arg(10'000)->Arg(50'000);

void BM_GreedyWscEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SetSystem system = MakeRandom(n, n, 12);
  for (auto _ : state) {
    GreedyWscOptions opts;
    opts.coverage_fraction = 0.5;
    auto solution = RunGreedyWeightedSetCover(system, opts);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_GreedyWscEndToEnd)->Arg(1000)->Arg(10'000);

// ---------------------------------------------------------------------------
// --engine-compare: literal Fig. 1/2 vs the benefit engine on a dense
// synthetic.
// ---------------------------------------------------------------------------

struct CompareTimings {
  double cwsc_seconds = 0.0;
  double cmc_seconds = 0.0;
  Solution cwsc_solution;
  Solution cmc_solution;
};

/// Runs CWSC and CMC — the literal Fig. 1/2 implementations when `literal`
/// is set, the benefit engine otherwise — best wall-clock of `reps` runs
/// each.
CompareTimings TimeArm(const SetSystem& system, bool literal, int reps,
                       obs::TraceSession* trace = nullptr) {
  CompareTimings t;
  CwscOptions cwsc_options(10, 0.9);
  cwsc_options.trace = trace;
  CmcOptions cmc_options;
  cmc_options.k = 10;
  cmc_options.coverage_fraction = 0.9;
  cmc_options.trace = trace;

  t.cwsc_seconds = 1e300;
  t.cmc_seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    {
      Stopwatch watch;
      Result<Solution> cwsc = literal ? RunCwscLiteral(system, cwsc_options)
                                      : RunCwsc(system, cwsc_options);
      t.cwsc_seconds = std::min(t.cwsc_seconds, watch.ElapsedSeconds());
      SCWSC_CHECK(cwsc.ok(), "engine-compare CWSC failed");
      t.cwsc_solution = *std::move(cwsc);
    }
    {
      Stopwatch watch;
      Result<CmcResult> cmc = literal ? RunCmcLiteral(system, cmc_options)
                                      : RunCmc(system, cmc_options);
      t.cmc_seconds = std::min(t.cmc_seconds, watch.ElapsedSeconds());
      SCWSC_CHECK(cmc.ok(), "engine-compare CMC failed");
      t.cmc_solution = std::move(cmc)->solution;
    }
  }
  return t;
}

bool SameSolution(const Solution& a, const Solution& b) {
  return a.sets == b.sets && a.total_cost == b.total_cost &&
         a.covered == b.covered;
}

int RunEngineCompare(const char* out_path) {
  bench::PrintBanner("BENCH_core",
                     "engine ablation: literal Fig. 1/2 vs benefit engine");

  // Dense synthetic: paper-scale 50k universe, 2k sets of up to n/2
  // elements, so the average element sits in ~500 sets.
  const std::size_t n = bench::ScaledRows(50'000);
  Rng rng(2015);
  RandomSystemSpec spec;
  spec.num_elements = n;
  spec.num_sets = 2000;
  spec.max_set_size = n / 2;
  spec.duplicate_cost_probability = 0.1;
  SetSystem system = RandomSetSystem(spec, rng).value();

  const int reps = 3;
  CompareTimings literal = TimeArm(system, /*literal=*/true, reps);
  // Tracing disabled (trace = nullptr): the instrumented hot loops cost one
  // pointer branch per would-be record. These timings are the <2%-regression
  // guard figure recorded below.
  CompareTimings fast = TimeArm(system, /*literal=*/false, reps);
  // The same engine with a live TraceSession: spans, events and counters
  // all recording. The ratio against `fast` is the enabled-tracing price.
  obs::TraceSession session;
  CompareTimings traced =
      TimeArm(system, /*literal=*/false, reps, &session);

  if (!SameSolution(literal.cwsc_solution, fast.cwsc_solution) ||
      !SameSolution(literal.cmc_solution, fast.cmc_solution) ||
      !SameSolution(fast.cwsc_solution, traced.cwsc_solution) ||
      !SameSolution(fast.cmc_solution, traced.cmc_solution)) {
    std::fprintf(stderr,
                 "FAIL: literal and engine runs returned different "
                 "solutions\n");
    return 1;
  }

  const double cwsc_speedup = literal.cwsc_seconds / fast.cwsc_seconds;
  const double cmc_speedup = literal.cmc_seconds / fast.cmc_seconds;
  const double cwsc_trace_overhead =
      traced.cwsc_seconds / fast.cwsc_seconds - 1.0;
  const double cmc_trace_overhead =
      traced.cmc_seconds / fast.cmc_seconds - 1.0;
  bench::PrintCsvRow("BENCH_core",
                     {"cwsc_literal_s=" + bench::Secs(literal.cwsc_seconds),
                      "cwsc_engine_s=" + bench::Secs(fast.cwsc_seconds),
                      "cmc_literal_s=" + bench::Secs(literal.cmc_seconds),
                      "cmc_engine_s=" + bench::Secs(fast.cmc_seconds),
                      "cwsc_traced_s=" + bench::Secs(traced.cwsc_seconds),
                      "cmc_traced_s=" + bench::Secs(traced.cmc_seconds)});
  std::printf("engine-compare: solutions identical; CWSC %.2fx, CMC %.2fx\n",
              cwsc_speedup, cmc_speedup);
  std::printf("tracing enabled overhead: CWSC %+.1f%%, CMC %+.1f%%\n",
              100.0 * cwsc_trace_overhead, 100.0 * cmc_trace_overhead);

  // Per-phase breakdown of the traced reps, for the JSON row.
  std::string phases_json;
  for (const auto& [name, seconds] : session.PhaseTotals()) {
    if (!phases_json.empty()) phases_json += ", ";
    phases_json += StrFormat("\"%s\": %.6f", name.c_str(), seconds);
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"experiment\": \"BENCH_core\",\n"
               "  \"scale\": %g,\n"
               "  \"elements\": %zu,\n"
               "  \"sets\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"identical_solutions\": true,\n"
               "  \"configs\": [\n"
               "    {\"name\": \"literal\", \"cwsc_seconds\": %.6f, "
               "\"cmc_seconds\": %.6f},\n"
               "    {\"name\": \"engine\", \"cwsc_seconds\": %.6f, "
               "\"cmc_seconds\": %.6f},\n"
               "    {\"name\": \"engine+trace\", \"cwsc_seconds\": %.6f, "
               "\"cmc_seconds\": %.6f}\n"
               "  ],\n"
               "  \"speedup\": {\"cwsc\": %.3f, \"cmc\": %.3f},\n"
               "  \"trace_overhead\": {\"cwsc\": %.4f, \"cmc\": %.4f},\n"
               "  \"phases\": {%s}\n"
               "}\n",
               bench::ScaleFactor(), n, system.num_sets(), reps,
               literal.cwsc_seconds, literal.cmc_seconds, fast.cwsc_seconds,
               fast.cmc_seconds, traced.cwsc_seconds, traced.cmc_seconds,
               cwsc_speedup, cmc_speedup, cwsc_trace_overhead,
               cmc_trace_overhead, phases_json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace scwsc

int main(int argc, char** argv) {
  const char* out_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engine-compare") == 0) {
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--out=", 6) == 0) {
        out_path = argv[i + 1] + 6;
      }
      return scwsc::RunEngineCompare(out_path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
