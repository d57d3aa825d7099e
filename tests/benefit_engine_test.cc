// Randomized equivalence suite for the benefit engine: every engine
// configuration (eager/lazy, list/bitset/auto membership, 1..N threads) must
// drive every greedy solver to the *identical* solution — same status, same
// set ids in the same order, same cost and coverage — on a spread of seeded
// random instances, including zero-cost sets and duplicate-element inputs.

#include "src/core/benefit_engine.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/baselines.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/instances.h"
#include "tests/test_util.h"

namespace scwsc {
namespace {

struct NamedEngine {
  const char* name;
  EngineOptions options;
};

/// Every engine configuration under test. The first entry is the seed
/// reference (eager inverted-index decrements over element lists).
std::vector<NamedEngine> AllEngines() {
  std::vector<NamedEngine> engines;
  engines.push_back({"eager/list", SeedReferenceEngine()});

  EngineOptions lazy_list;
  lazy_list.marginal_mode = MarginalMode::kLazy;
  lazy_list.membership = MembershipRepr::kList;
  engines.push_back({"lazy/list", lazy_list});

  EngineOptions lazy_bitset;
  lazy_bitset.marginal_mode = MarginalMode::kLazy;
  lazy_bitset.membership = MembershipRepr::kBitset;
  engines.push_back({"lazy/bitset", lazy_bitset});

  EngineOptions lazy_auto;  // the default fast path
  engines.push_back({"lazy/auto", lazy_auto});

  EngineOptions lazy_auto_mt = lazy_auto;
  lazy_auto_mt.num_threads = 4;
  lazy_auto_mt.min_parallel_batch = 1;  // force the chunked parallel path
  engines.push_back({"lazy/auto/4t", lazy_auto_mt});

  return engines;
}

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

TEST(BenefitEngineEquivalenceTest, CwscIdenticalAcrossEngines) {
  const auto engines = AllEngines();
  const auto specs = InstanceSpecs();
  ASSERT_GE(specs.size(), 20u);
  std::uint64_t seed = 1;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    for (double fraction : {0.4, 0.9}) {
      CwscOptions reference_options(6, fraction);
      reference_options.engine = engines[0].options;
      const std::string expected =
          Fingerprint(RunCwsc(*system, reference_options));
      for (std::size_t c = 1; c < engines.size(); ++c) {
        CwscOptions options(6, fraction);
        options.engine = engines[c].options;
        EXPECT_EQ(Fingerprint(RunCwsc(*system, options)), expected)
            << engines[c].name << " seed=" << seed - 1
            << " fraction=" << fraction;
      }
    }
  }
}

TEST(BenefitEngineEquivalenceTest, CmcIdenticalAcrossEngines) {
  const auto engines = AllEngines();
  const auto specs = InstanceSpecs();
  std::uint64_t seed = 101;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    CmcOptions reference_options;
    reference_options.k = 5;
    reference_options.coverage_fraction = 0.6;
    reference_options.engine = engines[0].options;
    Result<CmcResult> reference = RunCmc(*system, reference_options);
    const std::string expected =
        Fingerprint(reference.ok() ? Result<Solution>(reference->solution)
                                   : Result<Solution>(reference.status()));
    for (std::size_t c = 1; c < engines.size(); ++c) {
      CmcOptions options = reference_options;
      options.engine = engines[c].options;
      Result<CmcResult> got = RunCmc(*system, options);
      EXPECT_EQ(Fingerprint(got.ok() ? Result<Solution>(got->solution)
                                     : Result<Solution>(got.status())),
                expected)
          << engines[c].name << " seed=" << seed - 1;
      if (reference.ok() && got.ok()) {
        EXPECT_EQ(got->budget_rounds, reference->budget_rounds)
            << engines[c].name;
        EXPECT_EQ(got->final_budget, reference->final_budget)
            << engines[c].name;
      }
    }
  }
}

TEST(BenefitEngineEquivalenceTest, GreedyWscIdenticalAcrossEngines) {
  const auto engines = AllEngines();
  const auto specs = InstanceSpecs();
  std::uint64_t seed = 201;
  for (const RandomSystemSpec& spec : specs) {
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    GreedyWscOptions reference_options;
    reference_options.coverage_fraction = 0.8;
    reference_options.engine = engines[0].options;
    const std::string expected =
        Fingerprint(RunGreedyWeightedSetCover(*system, reference_options));
    for (std::size_t c = 1; c < engines.size(); ++c) {
      GreedyWscOptions options = reference_options;
      options.engine = engines[c].options;
      EXPECT_EQ(Fingerprint(RunGreedyWeightedSetCover(*system, options)),
                expected)
          << engines[c].name << " seed=" << seed - 1;
    }
  }
}

// Engine-level check: after an arbitrary selection sequence, every engine
// reports the same marginal count for every set, and BatchMarginals agrees
// with MarginalCount (including duplicate ids in the batch).
TEST(BenefitEngineTest, MarginalCountsAgreeAfterRandomSelections) {
  const auto engines = AllEngines();
  std::uint64_t seed = 301;
  for (int round = 0; round < 5; ++round) {
    RandomSystemSpec spec;
    spec.num_elements = 300;
    spec.num_sets = 90;
    spec.max_set_size = 40;
    Result<SetSystem> system = BuildInstance(spec, seed++);
    ASSERT_TRUE(system.ok());
    const std::size_t m = system->num_sets();

    Rng pick_rng(seed * 7919);
    std::vector<SetId> picks;
    for (int p = 0; p < 6; ++p) {
      picks.push_back(static_cast<SetId>(pick_rng.NextBounded(m)));
    }

    std::vector<BenefitEngine> states;
    states.reserve(engines.size());
    for (const NamedEngine& e : engines) {
      states.emplace_back(*system, e.options);
    }
    for (SetId pick : picks) {
      const std::size_t newly = states[0].Select(pick);
      for (std::size_t c = 1; c < states.size(); ++c) {
        EXPECT_EQ(states[c].Select(pick), newly) << engines[c].name;
      }
    }
    // Before any recount, the cached bound never understates the eager
    // reference's exact count.
    for (std::size_t c = 1; c < states.size(); ++c) {
      for (SetId id = 0; id < m; ++id) {
        EXPECT_GE(states[c].UpperBound(id), states[0].MarginalCount(id))
            << engines[c].name << " set " << id;
      }
    }
    std::vector<SetId> batch;
    for (SetId id = 0; id < m; ++id) batch.push_back(id);
    batch.push_back(0);  // duplicate id
    std::vector<std::size_t> reference_counts;
    states[0].BatchMarginals(batch, reference_counts);
    for (std::size_t c = 1; c < states.size(); ++c) {
      std::vector<std::size_t> counts;
      states[c].BatchMarginals(batch, counts);
      EXPECT_EQ(counts, reference_counts) << engines[c].name;
      for (SetId id = 0; id < m; ++id) {
        EXPECT_EQ(states[c].MarginalCount(id), reference_counts[id])
            << engines[c].name << " set " << id;
      }
    }
  }
}

TEST(BenefitEngineTest, AutoModePicksRowsByDensity) {
  SetSystem system(640);  // 10 words
  std::vector<ElementId> dense;
  for (ElementId e = 0; e < 64; e += 2) dense.push_back(e);  // 32 >= 10
  ASSERT_TRUE(system.AddSet(dense, 1.0).ok());
  ASSERT_TRUE(system.AddSet({1, 3, 5}, 1.0).ok());  // 3 < 10: stays a list

  BenefitEngine engine(system);  // default: lazy + auto
  EXPECT_TRUE(engine.UsesBitsetRow(0));
  EXPECT_FALSE(engine.UsesBitsetRow(1));

  EngineOptions all_rows;
  all_rows.membership = MembershipRepr::kBitset;
  BenefitEngine forced(system, all_rows);
  EXPECT_TRUE(forced.UsesBitsetRow(0));
  EXPECT_TRUE(forced.UsesBitsetRow(1));
}

TEST(BenefitEngineTest, ResetRestoresAllMarginals) {
  SetSystem system(100);
  std::vector<ElementId> big;
  for (ElementId e = 0; e < 80; ++e) big.push_back(e);
  ASSERT_TRUE(system.AddSet(big, 2.0).ok());
  ASSERT_TRUE(system.AddSet({70, 71, 90}, 1.0).ok());
  for (const NamedEngine& e : AllEngines()) {
    BenefitEngine engine(system, e.options);
    engine.Select(0);
    EXPECT_EQ(engine.MarginalCount(1), 1u) << e.name;
    engine.Reset();
    EXPECT_EQ(engine.covered_count(), 0u) << e.name;
    EXPECT_EQ(engine.MarginalCount(0), 80u) << e.name;
    EXPECT_EQ(engine.MarginalCount(1), 3u) << e.name;
  }
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
