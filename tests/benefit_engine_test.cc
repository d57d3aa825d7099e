// Randomized equivalence suite for the benefit engine: every greedy solver
// driven by it must return the *identical* outcome — same status, same set
// ids in the same order, same cost and coverage — as an independent
// reference on a spread of seeded random instances, including zero-cost
// sets and duplicate-element inputs. The references are the paper-verbatim
// Fig. 1/2 implementations (src/core/literal.h) for CMC and CWSC and an
// exhaustive-scan greedy for greedy WSC. Engine-level tests pin its counts
// against brute-force recounts, its density rule and its trip contract.

#include "src/core/benefit_engine.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/baselines.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/greedy_state.h"
#include "src/core/instances.h"
#include "src/core/literal.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

/// 20+ seeded instance shapes: dense and sparse, small and large universes,
/// duplicated costs (tie-break stress), tiny max sizes (list-path stress).
std::vector<RandomSystemSpec> InstanceSpecs() {
  std::vector<RandomSystemSpec> specs;
  for (std::uint64_t i = 0; i < 7; ++i) {
    RandomSystemSpec dense;
    dense.num_elements = 80 + 40 * i;
    dense.num_sets = 60 + 10 * i;
    dense.max_set_size = dense.num_elements / 2;
    dense.duplicate_cost_probability = (i % 2 == 0) ? 0.5 : 0.0;
    specs.push_back(dense);

    RandomSystemSpec sparse;
    sparse.num_elements = 500 + 100 * i;
    sparse.num_sets = 120;
    sparse.max_set_size = 4;  // far below one element per word
    sparse.duplicate_cost_probability = 0.3;
    specs.push_back(sparse);

    RandomSystemSpec mixed;
    mixed.num_elements = 256;
    mixed.num_sets = 80 + 20 * i;
    mixed.max_set_size = (i % 2 == 0) ? 8 : 200;
    mixed.min_cost = 0.5;
    mixed.max_cost = 2.0;  // narrow cost band: many near-ties
    specs.push_back(mixed);
  }
  return specs;  // 21 specs
}

Result<SetSystem> BuildInstance(const RandomSystemSpec& spec,
                                std::uint64_t seed) {
  Rng rng(seed);
  Result<SetSystem> system = RandomSetSystem(spec, rng);
  if (!system.ok()) return system;
  // Adversarial extras on every instance: a zero-cost set, an exact duplicate
  // of set 0's elements at a duplicated cost, and a set built from an input
  // list with repeated elements (AddSet must normalize it).
  const std::size_t n = system->num_elements();
  EXPECT_TRUE(
      system->AddSet({0, static_cast<ElementId>(n / 2)}, 0.0, "free").ok());
  EXPECT_TRUE(system
                  ->AddSet(std::vector<ElementId>(system->set(0).elements),
                           system->set(0).cost, "dup0")
                  .ok());
  const ElementId e = static_cast<ElementId>(n - 1);
  EXPECT_TRUE(system->AddSet({e, e, e, 0, 0}, 1.0, "dupelems").ok());
  return system;
}

/// Status code + full solution contents, printable on mismatch.
std::string Fingerprint(const Result<Solution>& result) {
  if (!result.ok()) {
    return std::string("status:") +
           std::string(StatusCodeToString(result.status().code()));
  }
  std::string out = "sets:";
  for (SetId id : result->sets) out += std::to_string(id) + ",";
  out += " cost:" + std::to_string(result->total_cost);
  out += " covered:" + std::to_string(result->covered);
  return out;
}

std::string Fingerprint(const Result<CmcResult>& result) {
  if (!result.ok()) return Fingerprint(Result<Solution>(result.status()));
  return Fingerprint(Result<Solution>(result->solution)) +
         " rounds:" + std::to_string(result->budget_rounds) +
         " budget:" + std::to_string(result->final_budget) +
         " considered:" + std::to_string(result->sets_considered);
}

/// Greedy WSC by exhaustive scan: every pick recounts every set against a
/// covered bitset and takes the argmax by BetterByGain.
Result<Solution> GreedyWscByScan(const SetSystem& system, double fraction) {
  std::size_t rem = SetSystem::CoverageTarget(fraction, system.num_elements());
  DynamicBitset covered(system.num_elements());
  Solution solution;
  while (rem > 0) {
    SetId best = kInvalidSet;
    std::size_t best_count = 0;
    for (SetId id = 0; id < system.num_sets(); ++id) {
      const std::size_t count = covered.CountClear(system.set(id).elements);
      if (count > 0 &&
          (best == kInvalidSet ||
           BetterByGain(count, system.set(id).cost, id, best_count,
                        system.set(best).cost, best))) {
        best = id;
        best_count = count;
      }
    }
    if (best == kInvalidSet) return Status::Infeasible("scan: sets exhausted");
    for (ElementId e : system.set(best).elements) covered.set(e);
    solution.sets.push_back(best);
    solution.total_cost += system.set(best).cost;
    rem = best_count >= rem ? 0 : rem - best_count;
  }
  solution.covered = covered.count();
  return solution;
}

TEST(BenefitEngineEquivalenceTest, CwscIdenticalAcrossEngines) {
  const auto specs = InstanceSpecs();
  ASSERT_GE(specs.size(), 20u);
  std::uint64_t seed = 1;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    for (double fraction : {0.4, 0.9}) {
      const CwscOptions options(6, fraction);
      EXPECT_EQ(Fingerprint(RunCwsc(*system, options)),
                Fingerprint(RunCwscLiteral(*system, options)))
          << "seed=" << seed - 1 << " fraction=" << fraction;
    }
  }
}

TEST(BenefitEngineEquivalenceTest, CmcIdenticalAcrossEngines) {
  const auto specs = InstanceSpecs();
  std::uint64_t seed = 101;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    CmcOptions options;
    options.k = 5;
    options.coverage_fraction = 0.6;
    EXPECT_EQ(Fingerprint(RunCmc(*system, options)),
              Fingerprint(RunCmcLiteral(*system, options)))
        << "seed=" << seed - 1;
  }
}

TEST(BenefitEngineEquivalenceTest, GreedyWscIdenticalAcrossEngines) {
  const auto specs = InstanceSpecs();
  std::uint64_t seed = 201;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    GreedyWscOptions options;
    options.coverage_fraction = 0.8;
    EXPECT_EQ(Fingerprint(RunGreedyWeightedSetCover(*system, options)),
              Fingerprint(GreedyWscByScan(*system, 0.8)))
        << "seed=" << seed - 1;
  }
}

// One SolveIndex shared by cwsc, cmc and greedy WSC, each run twice,
// interleaved: every run matches its reference, and a solver's two runs
// agree in picks and in sets_considered, so no run leaves a trace in the
// shared index.
TEST(BenefitEngineEquivalenceTest, SharedIndexRunsRepeatAndMatchReferences) {
  const auto specs = InstanceSpecs();
  std::uint64_t seed = 401;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    const SolveIndex index(*system);
    const CwscOptions cwsc_options(6, 0.9);
    CmcOptions cmc_options;
    cmc_options.k = 5;
    cmc_options.coverage_fraction = 0.6;
    GreedyWscOptions wsc_options;
    wsc_options.coverage_fraction = 0.8;

    std::vector<std::string> runs[3];
    for (int rep = 0; rep < 2; ++rep) {
      ScanStats cwsc_stats;
      const Result<Solution> cwsc = RunCwsc(index, cwsc_options, &cwsc_stats);
      EXPECT_EQ(Fingerprint(cwsc),
                Fingerprint(RunCwscLiteral(*system, cwsc_options)))
          << "seed=" << seed - 1;
      runs[0].push_back(Fingerprint(cwsc) + " considered:" +
                        std::to_string(cwsc_stats.sets_considered));

      const Result<CmcResult> cmc = RunCmc(index, cmc_options);
      EXPECT_EQ(Fingerprint(cmc),
                Fingerprint(RunCmcLiteral(*system, cmc_options)))
          << "seed=" << seed - 1;
      runs[1].push_back(Fingerprint(cmc));

      ScanStats wsc_stats;
      const Result<Solution> wsc =
          RunGreedyWeightedSetCover(index, wsc_options, &wsc_stats);
      EXPECT_EQ(Fingerprint(wsc), Fingerprint(GreedyWscByScan(*system, 0.8)))
          << "seed=" << seed - 1;
      runs[2].push_back(Fingerprint(wsc) + " considered:" +
                        std::to_string(wsc_stats.sets_considered));
    }
    for (const auto& pair : runs) {
      EXPECT_EQ(pair[0], pair[1]) << "seed=" << seed - 1;
    }
  }
}

// Engine-level check: after an arbitrary selection sequence, UpperBound
// never understates, and MarginalCount and BatchMarginals (including a
// duplicate id) agree with brute-force counts against the covered set.
TEST(BenefitEngineTest, MarginalCountsAgreeAfterRandomSelections) {
  std::uint64_t seed = 301;
  for (int round = 0; round < 5; ++round) {
    RandomSystemSpec spec;
    spec.num_elements = 300;
    spec.num_sets = 90;
    spec.max_set_size = 40;
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    const std::size_t m = system->num_sets();

    BenefitEngine engine(*system);
    DynamicBitset covered(system->num_elements());
    Rng pick_rng(seed * 7919);
    for (int p = 0; p < 6; ++p) {
      const auto pick = static_cast<SetId>(pick_rng.NextBounded(m));
      const std::size_t newly = covered.CountClear(system->set(pick).elements);
      for (ElementId e : system->set(pick).elements) covered.set(e);
      EXPECT_EQ(engine.Select(pick), newly) << "pick " << pick;
    }
    EXPECT_EQ(engine.covered_count(), covered.count());

    std::vector<std::size_t> expected(m);
    for (SetId id = 0; id < m; ++id) {
      expected[id] = covered.CountClear(system->set(id).elements);
      // Before any recount, the cached bound never understates.
      EXPECT_GE(engine.UpperBound(id), expected[id]) << "set " << id;
    }
    std::vector<SetId> batch;
    for (SetId id = 0; id < m; ++id) batch.push_back(id);
    batch.push_back(0);  // duplicate id
    std::vector<std::size_t> counts;
    SCWSC_ASSERT_OK(engine.BatchMarginals(batch, counts));
    ASSERT_EQ(counts.size(), m + 1);
    EXPECT_EQ(counts[m], expected[0]);
    for (SetId id = 0; id < m; ++id) {
      EXPECT_EQ(counts[id], expected[id]) << "set " << id;
      EXPECT_EQ(engine.UpperBound(id), expected[id]) << "set " << id;
      EXPECT_EQ(engine.MarginalCount(id), expected[id]) << "set " << id;
    }
  }
}

// A recount budget that trips partway through a batch: the interruption is
// returned, the slots past the trip carry their cached bounds, and nothing
// is committed, so every UpperBound is unchanged.
TEST(BenefitEngineTest, BatchTripLeavesCachedBounds) {
  SetSystem system(40);
  for (ElementId start = 0; start < 40; start += 4) {
    ASSERT_TRUE(system
                    .AddSet({start, start + 1, start + 2, start + 3,
                             (start + 4) % 40},
                            1.0)
                    .ok());
  }
  RunContext ctx;
  BenefitEngine engine(system, &ctx);
  engine.Select(0);  // covers 0..4: every later count is now stale
  ctx.SetRecountBudget(12);  // admits two 5-element recounts, trips on the third

  std::vector<SetId> batch;
  for (SetId id = 1; id < system.num_sets(); ++id) batch.push_back(id);
  std::vector<std::size_t> bounds_before;
  for (SetId id = 0; id < system.num_sets(); ++id) {
    bounds_before.push_back(engine.UpperBound(id));
  }
  std::vector<std::size_t> out;
  const Status status = engine.BatchMarginals(batch, out);
  EXPECT_TRUE(status.IsInterruption()) << status.ToString();
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  ASSERT_EQ(out.size(), batch.size());
  // Sets 1 (whose element 4 is covered) and 2 were recounted exactly
  // before the budget ran out; set 9 also lost element 0, but its slot
  // keeps the stale bound 5.
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[1], 5u);
  EXPECT_EQ(out.back(), 5u);
  for (std::size_t i = 2; i < batch.size(); ++i) {
    EXPECT_EQ(out[i], bounds_before[batch[i]]) << "slot " << i;
  }
  for (SetId id = 0; id < system.num_sets(); ++id) {
    EXPECT_EQ(engine.UpperBound(id), bounds_before[id]) << "set " << id;
  }
}

TEST(BenefitEngineTest, AutoModePicksRowsByDensity) {
  SetSystem system(640);  // 10 words
  std::vector<ElementId> dense;
  for (ElementId e = 0; e < 64; e += 2) dense.push_back(e);  // 32 >= 10
  ASSERT_TRUE(system.AddSet(dense, 1.0).ok());
  ASSERT_TRUE(system.AddSet({1, 3, 5}, 1.0).ok());  // 3 < 10: stays a list

  const SolveIndex index(system);
  EXPECT_NE(index.row(0), nullptr);
  EXPECT_EQ(index.row(1), nullptr);
  // The row holds exactly the set's elements.
  DynamicBitset covered(640);
  EXPECT_EQ(covered.AndNotCount(index.row(0), index.words_per_row()), 32u);
}

TEST(BenefitEngineTest, ResetRestoresAllMarginals) {
  SetSystem system(100);
  std::vector<ElementId> big;
  for (ElementId e = 0; e < 80; ++e) big.push_back(e);
  ASSERT_TRUE(system.AddSet(big, 2.0).ok());
  ASSERT_TRUE(system.AddSet({70, 71, 90}, 1.0).ok());
  BenefitEngine engine(system);
  engine.Select(0);
  EXPECT_EQ(engine.MarginalCount(1), 1u);
  engine.Reset();
  EXPECT_EQ(engine.covered_count(), 0u);
  EXPECT_EQ(engine.MarginalCount(0), 80u);
  EXPECT_EQ(engine.MarginalCount(1), 3u);
}

SetSystem MakeSmallSystem() {
  SetSystem system(6);
  EXPECT_TRUE(system.AddSet({0, 1, 2}, 3.0).ok());  // set 0
  EXPECT_TRUE(system.AddSet({2, 3}, 1.0).ok());     // set 1
  EXPECT_TRUE(system.AddSet({4, 5}, 2.0).ok());     // set 2
  EXPECT_TRUE(system.AddSet({0, 5}, 5.0).ok());     // set 3
  return system;
}

TEST(BenefitEngineTest, InitialMarginalsEqualBenefits) {
  SetSystem system = MakeSmallSystem();
  BenefitEngine engine(system);
  EXPECT_EQ(engine.MarginalCount(0), 3u);
  EXPECT_EQ(engine.MarginalCount(1), 2u);
  EXPECT_EQ(engine.MarginalCount(2), 2u);
  EXPECT_EQ(engine.MarginalCount(3), 2u);
  EXPECT_EQ(engine.covered_count(), 0u);
}

TEST(BenefitEngineTest, SelectUpdatesOverlappingSets) {
  SetSystem system = MakeSmallSystem();
  BenefitEngine engine(system);
  EXPECT_EQ(engine.Select(0), 3u);  // covers 0,1,2
  EXPECT_EQ(engine.covered_count(), 3u);
  EXPECT_EQ(engine.MarginalCount(0), 0u);
  EXPECT_EQ(engine.MarginalCount(1), 1u);  // {3} left
  EXPECT_EQ(engine.MarginalCount(2), 2u);  // untouched
  EXPECT_EQ(engine.MarginalCount(3), 1u);  // {5} left
  EXPECT_TRUE(engine.IsCovered(1));
  EXPECT_FALSE(engine.IsCovered(3));
}

TEST(BenefitEngineTest, RepeatedSelectIsIdempotentOnCoverage) {
  SetSystem system = MakeSmallSystem();
  BenefitEngine engine(system);
  engine.Select(1);
  EXPECT_EQ(engine.Select(1), 0u);  // nothing new
  EXPECT_EQ(engine.covered_count(), 2u);
}

TEST(BenefitEngineTest, ResetRestoresInitialState) {
  SetSystem system = MakeSmallSystem();
  BenefitEngine engine(system);
  engine.Select(0);
  engine.Reset();
  EXPECT_EQ(engine.covered_count(), 0u);
  EXPECT_EQ(engine.MarginalCount(0), 3u);
  EXPECT_EQ(engine.MarginalCount(1), 2u);
}

TEST(FilterCoveredIdsTest, FiltersEachListIndependently) {
  DynamicBitset covered(10);
  covered.set(2);
  covered.set(7);
  std::vector<std::uint32_t> a = {1, 2, 3, 7};
  std::vector<std::uint32_t> b = {2, 7};
  std::vector<std::uint32_t> c = {0, 9};
  std::vector<std::vector<std::uint32_t>*> lists = {&a, &b, &c};

  SCWSC_ASSERT_OK(FilterCoveredIds(covered, lists));
  EXPECT_EQ(a, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c, (std::vector<std::uint32_t>{0, 9}));
}

}  // namespace
}  // namespace scwsc
