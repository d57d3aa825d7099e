// EXP-D1 — §VI-D: comparison to the optimal solution on small samples.
//
// Paper finding: "CMC found an optimal solution when we used small values
// of b and ε. CWSC almost always found an optimal solution" (one exception
// where optimal = 8, CWSC = 9). We draw several small samples, solve
// exactly with branch-and-bound, and report greedy/optimal cost ratios.
//
// The CWSC and CMC arms also request the accuracy certificate
// (core/accuracy.h): its lower bound is printed beside the optimum, with
// each arm's certified ratio cost / bound next to its true ratio
// cost / optimum, and the run aborts if any bound exceeds the optimum.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

int main() {
  using namespace scwsc;
  using namespace scwsc::bench;

  PrintBanner("EXP-D1", "§VI-D: greedy vs exact optimum on small samples");
  std::printf("%8s %4s %6s %12s %12s %12s %12s %10s %10s %10s %10s\n",
              "sample", "k", "s", "optimal", "bound", "CWSC", "CMC",
              "CWSC/opt", "CMC/opt", "CWSC/bnd", "CMC/bnd");

  // Small samples need small active domains for the exact search to close;
  // project the trace to 3 attributes as §VI-D's "small samples" regime.
  Table big = MakeTrace(ScaledRows(700'000));
  Rng rng(607);

  int sample_id = 0;
  std::size_t cwsc_optimal = 0, cmc_optimal = 0, total = 0;
  for (std::size_t sample_rows : {40u, 60u, 80u}) {
    for (double s : {0.3, 0.5}) {
      Table sampled = big.Sample(sample_rows, rng);
      auto projected = sampled.ProjectAttributes({0, 3, 4});
      SCWSC_CHECK(projected.ok(), "projection failed");
      const api::InstancePtr instance = MakeSnapshot(*std::move(projected));

      const std::size_t k = 5;
      api::SolveResult optimal =
          MustSolve("exact", MakeRequest(instance, k, s));
      api::SolveRequest cwsc_request = MakeRequest(instance, k, s);
      cwsc_request.certify = true;
      api::SolveResult cwsc = MustSolve("cwsc", cwsc_request);
      // Small b/eps per §VI-D; strict so every arm hits the same target.
      api::SolveRequest cmc_request =
          MakeRequest(instance, k, s, {"b=0.25", "epsilon=0", "strict=true"});
      cmc_request.certify = true;
      api::SolveResult cmc = MustSolve("cmc", cmc_request);

      const double opt_cost = optimal.total_cost;
      const double bound = cwsc.certificate->lower_bound;
      const double rc = cwsc.total_cost / opt_cost;
      const double rm = cmc.total_cost / opt_cost;
      ++total;
      if (rc <= 1.0 + 1e-9) ++cwsc_optimal;
      if (rm <= 1.0 + 1e-9) ++cmc_optimal;
      std::printf(
          "%8d %4zu %6.1f %12s %12s %12s %12s %9.2fx %9.2fx %9.2fx %9.2fx\n",
          ++sample_id, k, s, FormatNumber(opt_cost, 6).c_str(),
          FormatNumber(bound, 6).c_str(),
          FormatNumber(cwsc.total_cost, 6).c_str(),
          FormatNumber(cmc.total_cost, 6).c_str(), rc, rm,
          cwsc.certificate->certified_ratio, cmc.certificate->certified_ratio);
      std::fflush(stdout);  // the row explains a failed check below
      for (const api::SolveResult* arm : {&cwsc, &cmc}) {
        SCWSC_CHECK(arm->certificate->lower_bound <=
                        opt_cost + 1e-9 * std::max(1.0, opt_cost),
                    "certified lower bound %.17g exceeds the optimum %.17g",
                    arm->certificate->lower_bound, opt_cost);
      }
      PrintCsvRow("exp_vi_d",
                  {std::to_string(sample_id), StrFormat("%.1f", s),
                   FormatNumber(opt_cost, 6), FormatNumber(cwsc.total_cost, 6),
                   FormatNumber(cmc.total_cost, 6), FormatNumber(bound, 6)});
    }
  }
  std::printf("\nCWSC optimal in %zu/%zu samples; CMC optimal in %zu/%zu\n",
              cwsc_optimal, total, cmc_optimal, total);
  return 0;
}
