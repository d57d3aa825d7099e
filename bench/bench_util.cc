#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace scwsc {
namespace bench {

double ScaleFactor() {
  static const double scale = [] {
    const char* env = std::getenv("SCWSC_BENCH_SCALE");
    if (env == nullptr) return 0.1;
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || v <= 0.0) {
      SCWSC_LOG_WARN("ignoring invalid SCWSC_BENCH_SCALE='%s'", env);
      return 0.1;
    }
    return v;
  }();
  return scale;
}

std::size_t ScaledRows(std::size_t paper_rows) {
  const double scaled = static_cast<double>(paper_rows) * ScaleFactor();
  return scaled < 1000.0 ? 1000 : static_cast<std::size_t>(scaled);
}

Table MakeTrace(std::size_t rows, std::uint64_t seed) {
  gen::LblSynthSpec spec;
  spec.num_rows = rows;
  spec.seed = seed;
  auto table = gen::MakeLblSynth(spec);
  SCWSC_CHECK(table.ok(), "trace generation failed: %s",
              table.status().ToString().c_str());
  return std::move(table).value();
}

api::InstancePtr MakeSnapshot(
    Table table, pattern::CostKind kind,
    std::optional<hierarchy::TableHierarchy> hierarchy) {
  auto snapshot = api::InstanceSnapshot::FromTable(
      std::move(table), pattern::CostFunction(kind), std::move(hierarchy));
  SCWSC_CHECK(snapshot.ok(), "snapshot construction failed: %s",
              snapshot.status().ToString().c_str());
  return *std::move(snapshot);
}

api::InstancePtr MakeTraceSnapshot(std::size_t paper_rows,
                                   pattern::CostKind kind) {
  return MakeSnapshot(MakeTrace(ScaledRows(paper_rows)), kind);
}

api::SolveRequest MakeRequest(api::InstancePtr instance, std::size_t k,
                              double fraction,
                              const std::vector<std::string>& options) {
  auto request = api::SolveRequest::Builder(std::move(instance))
                     .WithK(k)
                     .WithCoverage(fraction)
                     .WithOptions(options)
                     .Build();
  SCWSC_CHECK(request.ok(), "bad bench request: %s",
              request.status().ToString().c_str());
  return *std::move(request);
}

api::SolveResult MustSolve(const std::string& solver,
                           const api::SolveRequest& request) {
  auto result = api::SolverRegistry::Global().Solve(solver, request);
  SCWSC_CHECK(result.ok(), "%s failed: %s", solver.c_str(),
              result.status().ToString().c_str());
  return *std::move(result);
}

void PrintBanner(const std::string& experiment_id,
                 const std::string& paper_artifact) {
  std::printf("\n=== %s — %s ===\n", experiment_id.c_str(),
              paper_artifact.c_str());
  std::printf("scale=%g (SCWSC_BENCH_SCALE; 1.0 = paper-sized axes)\n",
              ScaleFactor());
}

void PrintCsvRow(const std::string& experiment_id,
                 const std::vector<std::string>& values) {
  std::string line = "#csv," + experiment_id;
  for (const auto& v : values) {
    line += ',';
    line += v;
  }
  std::printf("%s\n", line.c_str());
}

std::string Secs(double seconds) { return StrFormat("%.3f", seconds); }

}  // namespace bench
}  // namespace scwsc
