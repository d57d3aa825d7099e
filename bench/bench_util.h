// Shared infrastructure for the experiment harness.
//
// Every bench binary regenerates one table or figure of the paper's §VI.
// Row counts follow the paper's axes scaled by the SCWSC_BENCH_SCALE
// environment variable (default chosen so the full suite completes in a few
// minutes on a laptop); shapes — who wins, by what factor, where crossovers
// fall — are scale-stable, which is what EXPERIMENTS.md records.

#ifndef SCWSC_BENCH_BENCH_UTIL_H_
#define SCWSC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/common/stopwatch.h"
#include "src/gen/lbl_synth.h"
#include "src/hierarchy/hierarchy.h"
#include "src/table/table.h"

namespace scwsc {
namespace bench {

/// SCWSC_BENCH_SCALE (float, default 0.1): multiplies every paper row-count
/// axis. 1.0 reproduces the paper's 700k-row ceiling.
double ScaleFactor();

/// paper_rows * ScaleFactor(), at least 1000.
std::size_t ScaledRows(std::size_t paper_rows);

/// The base synthetic LBL-like trace used across benches (deterministic).
Table MakeTrace(std::size_t rows, std::uint64_t seed = 42);

/// One shared instance snapshot over a patterned table (aborts on failure —
/// bench inputs are trusted). Every solver arm of a bench point shares this
/// one snapshot instead of re-enumerating per arm.
api::InstancePtr MakeSnapshot(
    Table table, pattern::CostKind kind = pattern::CostKind::kMax,
    std::optional<hierarchy::TableHierarchy> hierarchy = std::nullopt);

/// The common bench opener in one call: deterministic synthetic trace of
/// ScaledRows(paper_rows) rows wrapped in a snapshot. Deduplicates the
/// MakeSnapshot(MakeTrace(ScaledRows(N))) boilerplate of the fig/table
/// benches.
api::InstancePtr MakeTraceSnapshot(
    std::size_t paper_rows, pattern::CostKind kind = pattern::CostKind::kMax);

/// A SolveRequest over a shared snapshot with "key=value" options items.
api::SolveRequest MakeRequest(api::InstancePtr instance, std::size_t k,
                              double fraction,
                              const std::vector<std::string>& options = {});

/// Registry dispatch that aborts on any failure (benches never expect one).
api::SolveResult MustSolve(const std::string& solver,
                           const api::SolveRequest& request);

/// Prints the experiment banner: id, paper artifact, scale note.
void PrintBanner(const std::string& experiment_id,
                 const std::string& paper_artifact);

/// Prints a row of "name=value" pairs in a stable aligned format followed
/// by a machine-greppable CSV line ("#csv,<exp>,<v1>,<v2>,...").
void PrintCsvRow(const std::string& experiment_id,
                 const std::vector<std::string>& values);

/// Formats seconds with 3 decimals.
std::string Secs(double seconds);

}  // namespace bench
}  // namespace scwsc

#endif  // SCWSC_BENCH_BENCH_UTIL_H_
