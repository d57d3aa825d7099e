// Tests for the accuracy certificate (core/accuracy.h): the dual-fitting
// lower bound on the cost of covering ⌈ŝn⌉ elements, checked against the
// exact optimum and the LP relaxation on random small instances, and its
// plumbing through the registry (SolveRequest::certify).

#include "src/core/accuracy.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/registry.h"
#include "src/common/rng.h"
#include "src/core/exact.h"
#include "src/core/instances.h"
#include "src/core/set_system.h"
#include "src/lp/lp_rounding.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

double Bound(const SetSystem& system, double coverage_fraction) {
  auto bound = CoverageLowerBound(system, coverage_fraction);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? *bound : -1.0;
}

/// A registry solve of `solver` on a snapshot of `system` that asks for the
/// certificate.
Result<api::SolveResult> CertifiedSolve(const std::string& solver,
                                        const api::InstancePtr& instance,
                                        std::size_t k, double fraction) {
  SCWSC_ASSIGN_OR_RETURN(auto request, api::SolveRequest::Builder(instance)
                                           .WithK(k)
                                           .WithCoverage(fraction)
                                           .WithCertificate()
                                           .Build());
  return api::SolverRegistry::Global().Solve(solver, request);
}

TEST(AccuracyTest, PerfectSelectionCertifiesRatioOne) {
  SetSystem system(2);
  SCWSC_ASSERT_OK(system.AddSet({0, 1}, 2.0).status());  // A
  SCWSC_ASSERT_OK(system.AddSet({0}, 1.0).status());     // B
  // The greedy cover takes A (gain 1, ties B, more benefit) and prices both
  // elements at 1. A's mass is 2/2, B's is 1/1: the prices are already
  // dual feasible, and covering both elements costs at least 2.
  EXPECT_DOUBLE_EQ(Bound(system, 1.0), 2.0);

  auto instance = api::InstanceSnapshot::FromSetSystem(std::move(system));
  SCWSC_ASSERT_OK(instance.status());
  auto result = CertifiedSolve("cwsc", *instance, 1, 1.0);
  SCWSC_ASSERT_OK(result.status());
  ASSERT_TRUE(result->certificate.has_value());
  EXPECT_DOUBLE_EQ(result->certificate->lower_bound, 2.0);
  EXPECT_DOUBLE_EQ(result->certificate->certified_ratio, 1.0);
}

TEST(AccuracyTest, GreedyOrderYieldsKnownGamma) {
  SetSystem system(2);
  SCWSC_ASSERT_OK(system.AddSet({0}, 1.0).status());     // B
  SCWSC_ASSERT_OK(system.AddSet({0, 1}, 3.0).status());  // A
  // The greedy takes B first (gain 1 > 2/3), pricing element 0 at 1; A then
  // newly covers only element 1, at 3. A's mass is (1 + 3) / 3, so
  // gamma = 4/3 and the scaled prices are 0.75 and 2.25.
  EXPECT_NEAR(Bound(system, 1.0), 3.0, 1e-12);  // = OPT: A alone
  EXPECT_NEAR(Bound(system, 0.5), 0.75, 1e-12);  // one element: OPT is 1
  // The selection {B, A} covers both elements at cost 4: within 4/3 of OPT.
  EXPECT_NEAR(CertifiedRatio(4.0, Bound(system, 1.0)), 4.0 / 3.0, 1e-12);
}

TEST(AccuracyTest, FreeCopyOfAPricedSetZeroesTheBound) {
  // Selecting A alone, the deleted selection-replay estimate priced both
  // elements at 5 and, skipping zero-cost B, certified a ratio of 1.0 —
  // although B covers everything for free. Here the greedy takes B first,
  // so both prices, and the bound, are 0.
  SetSystem system(2);
  SCWSC_ASSERT_OK(system.AddSet({0, 1}, 10.0).status());  // A
  SCWSC_ASSERT_OK(system.AddSet({0, 1}, 0.0).status());   // B
  EXPECT_EQ(Bound(system, 1.0), 0.0);
  EXPECT_EQ(Bound(system, 0.5), 0.0);
  EXPECT_EQ(CertifiedRatio(10.0, 0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(CertifiedRatio(0.0, 0.0), 1.0);
}

TEST(AccuracyTest, ElementsNoSetContainsAreNeverAmongTheSmallest) {
  SetSystem system(3);  // element 2 lies in no set
  SCWSC_ASSERT_OK(system.AddSet({0, 1}, 2.0).status());
  // Two of three elements: only 0 and 1 can be covered, at 1 each.
  EXPECT_DOUBLE_EQ(Bound(system, 2.0 / 3.0), 2.0);
  // All three is infeasible; every coverable price still counts.
  EXPECT_DOUBLE_EQ(Bound(system, 1.0), 2.0);
  EXPECT_EQ(Bound(system, 0.0), 0.0);
  EXPECT_TRUE(CoverageLowerBound(system, 1.5).status().IsInvalidArgument());
}

TEST(AccuracyTest, RatioNeverDipsBelowOne) {
  // Every subset of a small random system that covers the target costs at
  // least the bound.
  Rng rng(20261019);
  RandomSystemSpec spec;
  spec.num_elements = 10;
  spec.num_sets = 9;
  spec.max_set_size = 5;
  spec.ensure_universe = false;
  for (int round = 0; round < 20; ++round) {
    auto system = RandomSetSystem(spec, rng);
    SCWSC_ASSERT_OK(system.status());
    for (double fraction : {0.3, 0.6, 1.0}) {
      const double bound = Bound(*system, fraction);
      const std::size_t target = SetSystem::CoverageTarget(fraction, 10);
      for (unsigned mask = 0; mask < (1u << system->num_sets()); ++mask) {
        Solution selection;
        for (SetId id = 0; id < system->num_sets(); ++id) {
          if ((mask >> id) & 1u) {
            selection.sets.push_back(id);
            selection.total_cost += system->set(id).cost;
          }
        }
        auto audit = AuditSolution(*system, selection);
        SCWSC_ASSERT_OK(audit.status());
        if (audit->covered < target) continue;
        EXPECT_GE(CertifiedRatio(selection.total_cost, bound), 1.0 - 1e-9)
            << "round " << round << " mask " << mask;
      }
    }
  }
}

TEST(AccuracyTest, BoundNeverExceedsOptimumOrRelaxation) {
  Rng rng(1811'04037);
  std::size_t violations = 0, checked_opt = 0, checked_lp = 0,
              checked_ratio = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    RandomSystemSpec spec;
    spec.num_elements = 12 + rng.NextBounded(10);  // 12..21
    spec.num_sets = 8 + rng.NextBounded(8);        // 8..15
    spec.max_set_size = 2 + rng.NextBounded(6);
    spec.ensure_universe = trial % 3 != 0;
    spec.duplicate_cost_probability = 0.1;
    auto random = RandomSetSystem(spec, rng);
    SCWSC_ASSERT_OK(random.status());
    // Every other instance turns some of its sets free.
    SetSystem system(random->num_elements());
    for (SetId id = 0; id < random->num_sets(); ++id) {
      const WeightedSet& s = random->set(id);
      const bool free = trial % 2 == 1 && rng.NextBool(0.2);
      SCWSC_ASSERT_OK(system.AddSet(s.elements, free ? 0.0 : s.cost).status());
    }
    const std::size_t k = 1 + rng.NextBounded(5);
    const double fraction = rng.NextDouble(0.3, 0.9);
    const std::size_t target =
        SetSystem::CoverageTarget(fraction, system.num_elements());

    ExactOptions exact_options;
    exact_options.k = k;
    exact_options.coverage_fraction = fraction;
    auto exact = SolveExact(system, exact_options);
    auto relaxation = lp::SolveScwscRelaxation(system, k, fraction);
    auto instance = api::InstanceSnapshot::FromSetSystem(system.Clone());
    SCWSC_ASSERT_OK(instance.status());

    for (const char* solver : {"cwsc", "cmc", "greedy-wsc"}) {
      auto result = CertifiedSolve(solver, *instance, k, fraction);
      if (!result.ok()) continue;  // infeasible on this instance
      ASSERT_TRUE(result->certificate.has_value()) << solver;
      const api::Certificate& c = *result->certificate;
      const std::string where = std::string(solver) + " trial " +
                                std::to_string(trial);
      if (exact.ok()) {
        const double opt = exact->solution.total_cost;
        ++checked_opt;
        if (c.lower_bound > opt + 1e-9 * std::max(1.0, opt)) {
          ++violations;
          ADD_FAILURE() << where << ": bound " << c.lower_bound << " > OPT "
                        << opt;
        }
      }
      if (relaxation.ok()) {
        const double lp = relaxation->lower_bound;
        ++checked_lp;
        if (c.lower_bound > lp + 1e-7 * std::max(1.0, lp)) {
          ++violations;
          ADD_FAILURE() << where << ": bound " << c.lower_bound << " > LP "
                        << lp;
        }
      }
      if (result->covered >= target) {
        ++checked_ratio;
        if (c.certified_ratio < 1.0 - 1e-9) {
          ++violations;
          ADD_FAILURE() << where << ": certified ratio " << c.certified_ratio
                        << " < 1 at covered " << result->covered;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  // The mix must exercise every comparison, not skip most instances.
  EXPECT_GT(checked_opt, 3000u);
  EXPECT_GT(checked_lp, 3000u);
  EXPECT_GT(checked_ratio, 3000u);
}

}  // namespace
}  // namespace scwsc
