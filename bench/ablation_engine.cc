// EXP-ABL — engine ablation: literal Fig. 1/2 pseudocode vs this library's
// tuned generic engines (the benefit engine's packed-row recounts + lazy-
// greedy heaps). Both produce identical selections (see tests/literal_test.cc);
// the tuned engines exist so that the *generic* path is usable at scale,
// independent of the §V-C pattern-lattice optimizations.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/literal.h"
#include "src/pattern/pattern_system.h"

int main() {
  using namespace scwsc;
  using namespace scwsc::bench;

  PrintBanner("EXP-ABL-ENGINE",
              "literal pseudocode vs tuned generic engines (same outputs)");
  std::printf("%10s %14s %14s %14s %14s\n", "tuples", "CWSC-lit(s)",
              "CWSC-tuned(s)", "CMC-lit(s)", "CMC-tuned(s)");

  const std::size_t max_rows = ScaledRows(350'000);
  for (std::size_t rows : {max_rows / 4, max_rows / 2, max_rows}) {
    Table table = MakeTrace(rows);
    auto system = pattern::PatternSystem::Build(
        table, pattern::CostFunction(pattern::CostKind::kMax));
    SCWSC_CHECK(system.ok(), "enumeration failed");

    CwscOptions cwsc_opts{10, 0.3};
    CmcOptions cmc_opts;
    cmc_opts.k = 10;
    cmc_opts.coverage_fraction = 0.3;

    Stopwatch sw;
    auto lit_cwsc = RunCwscLiteral(system->set_system(), cwsc_opts);
    const double t_lit_cwsc = sw.ElapsedSeconds();
    SCWSC_CHECK(lit_cwsc.ok(), "literal CWSC failed");

    sw.Reset();
    auto tuned_cwsc = RunCwsc(system->set_system(), cwsc_opts);
    const double t_tuned_cwsc = sw.ElapsedSeconds();
    SCWSC_CHECK(tuned_cwsc.ok(), "tuned CWSC failed");
    SCWSC_CHECK(lit_cwsc->sets == tuned_cwsc->sets,
                "engines disagree on CWSC");

    sw.Reset();
    auto lit_cmc = RunCmcLiteral(system->set_system(), cmc_opts);
    const double t_lit_cmc = sw.ElapsedSeconds();
    SCWSC_CHECK(lit_cmc.ok(), "literal CMC failed");

    sw.Reset();
    auto tuned_cmc = RunCmc(system->set_system(), cmc_opts);
    const double t_tuned_cmc = sw.ElapsedSeconds();
    SCWSC_CHECK(tuned_cmc.ok(), "tuned CMC failed");
    SCWSC_CHECK(lit_cmc->solution.sets == tuned_cmc->solution.sets,
                "engines disagree on CMC");

    std::printf("%10zu %14s %14s %14s %14s\n", rows, Secs(t_lit_cwsc).c_str(),
                Secs(t_tuned_cwsc).c_str(), Secs(t_lit_cmc).c_str(),
                Secs(t_tuned_cmc).c_str());
    PrintCsvRow("ablation_engine",
                {std::to_string(rows), Secs(t_lit_cwsc), Secs(t_tuned_cwsc),
                 Secs(t_lit_cmc), Secs(t_tuned_cmc)});
  }
  return 0;
}
