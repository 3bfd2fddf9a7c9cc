#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bitmap/kernels.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/salary_dataset.h"
#include "plans/plans.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

RuleGenOptions WideRuleGen() {
  RuleGenOptions options;
  options.max_itemset_length = 31;
  return options;
}

std::vector<uint64_t> Effort(const PlanStats& stats) {
  return {stats.subset_size,          stats.local_min_count,
          stats.candidates_search,    stats.candidates_contained,
          stats.candidates_qualified, stats.record_checks,
          stats.rtree_nodes_visited,  stats.rtree_pruned_by_support,
          stats.rules_considered,     stats.rules_emitted,
          stats.itemsets_skipped};
}

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(MaxSupportedSimdLevel()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

// Restores the entry SIMD level even when an assertion bails out early.
class SimdEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetActiveSimdLevel(entry_level_); }
  const SimdLevel entry_level_ = ActiveSimdLevel();
};

TEST_F(SimdEquivalenceTest, LevelNamesRoundTrip) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    auto parsed = SimdLevelFromName(SimdLevelName(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(SimdLevelFromName("").has_value());
  EXPECT_FALSE(SimdLevelFromName("AVX2").has_value());
  EXPECT_FALSE(SimdLevelFromName("sse").has_value());
}

TEST_F(SimdEquivalenceTest, ResolveSimdLevelClampsToHost) {
  const SimdLevel max = MaxSupportedSimdLevel();
  // No override, empty, or garbage: use the best the host offers.
  EXPECT_EQ(ResolveSimdLevel(nullptr, max), max);
  EXPECT_EQ(ResolveSimdLevel("", max), max);
  EXPECT_EQ(ResolveSimdLevel("turbo", max), max);
  // A recognized name is honoured but never exceeds the host.
  EXPECT_EQ(ResolveSimdLevel("scalar", max), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel("avx512", SimdLevel::kScalar),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel("avx2", SimdLevel::kAvx512), SimdLevel::kAvx2);
}

TEST_F(SimdEquivalenceTest, SetActiveRejectsUnsupportedLevels) {
  EXPECT_TRUE(SetActiveSimdLevel(SimdLevel::kScalar));
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  for (SimdLevel level : SupportedLevels()) {
    EXPECT_TRUE(SetActiveSimdLevel(level));
    EXPECT_EQ(ActiveSimdLevel(), level);
    EXPECT_NE(KernelsForLevel(level), nullptr);
  }
  if (MaxSupportedSimdLevel() != SimdLevel::kAvx512) {
    EXPECT_FALSE(SetActiveSimdLevel(SimdLevel::kAvx512));
  }
}

// Every plan, at 1/2/8 threads, must produce byte-identical rules and
// effort counters at every SIMD level the host can run. The scalar-kernel
// run is the reference. Dense DQs drive the word kernels, sparse ones the
// row routes.
void ExpectLevelsEquivalent(const MipIndex& index,
                            const std::vector<LocalizedQuery>& queries) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::vector<ThreadPool*> pools = {nullptr, &pool2, &pool8};
  const std::vector<SimdLevel> levels = SupportedLevels();

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const LocalizedQuery& query = queries[qi];
    ASSERT_TRUE(query.Validate(index.dataset().schema()).ok());
    for (PlanKind kind : kAllPlans) {
      ASSERT_TRUE(SetActiveSimdLevel(SimdLevel::kScalar));
      PlanExecOptions exec;
      exec.rulegen = WideRuleGen();
      auto reference = ExecutePlan(kind, index, query, exec);
      ASSERT_TRUE(reference.ok()) << PlanKindName(kind);

      for (SimdLevel level : levels) {
        if (level == SimdLevel::kScalar) continue;
        ASSERT_TRUE(SetActiveSimdLevel(level));
        for (ThreadPool* pool : pools) {
          PlanExecOptions vec_exec;
          vec_exec.rulegen = WideRuleGen();
          vec_exec.pool = pool;
          auto run = ExecutePlan(kind, index, query, vec_exec);
          ASSERT_TRUE(run.ok()) << PlanKindName(kind);
          const unsigned threads = pool ? pool->parallelism() : 1;
          EXPECT_TRUE(run->rules.SameAs(reference->rules))
              << PlanKindName(kind) << " @" << SimdLevelName(level) << " x"
              << threads << " query " << qi << ": "
              << run->rules.rules.size() << " rules vs "
              << reference->rules.rules.size();
          EXPECT_EQ(Effort(run->stats), Effort(reference->stats))
              << PlanKindName(kind) << " @" << SimdLevelName(level) << " x"
              << threads << " query " << qi;
        }
      }
    }
  }
}

LocalizedQuery MakeQuery(double minsupp, double minconf,
                         std::vector<RangeSelection> ranges) {
  LocalizedQuery query;
  query.minsupp = minsupp;
  query.minconf = minconf;
  query.ranges = std::move(ranges);
  return query;
}

TEST_F(SimdEquivalenceTest, RandomDataset) {
  // 500 records => bitmaps span several vector registers plus a tail word,
  // and tidsets are skewed enough to trigger the galloping probe.
  Dataset dataset = RandomDataset(11, 500, 5, 4);
  auto index = MipIndex::Build(dataset, {.primary_support = 0.08});
  ASSERT_TRUE(index.ok());
  std::vector<LocalizedQuery> queries = {
      MakeQuery(0.1, 0.5, {{0, 0, 1}}),
      MakeQuery(0.05, 0.3, {{0, 0, 2}, {2, 1, 3}}),
      MakeQuery(0.1, 0.5, {}),  // unconstrained box
      // A handful of records, under the 8-record density bar: row routes.
      MakeQuery(0.1, 0.5, {{0, 1, 1}, {1, 1, 1}}),
  };
  ExpectLevelsEquivalent(*index, queries);
}

TEST_F(SimdEquivalenceTest, SalaryDataset) {
  Dataset dataset = MakeSalaryDataset();
  auto index = MipIndex::Build(dataset, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  std::vector<LocalizedQuery> queries = {
      MakeQuery(0.3, 0.6, {{2, 1, 1}, {3, 1, 1}}),
      MakeQuery(0.3, 0.6, {}),
  };
  ExpectLevelsEquivalent(*index, queries);
}

// The engine path: a calibrated engine rebuilt at each SIMD level answers
// every query with the same rules (the optimizer may legally pick a
// different plan when the kernel costs shift, so only rules are compared
// here; forced-plan effort equality is covered above).
TEST_F(SimdEquivalenceTest, CalibratedEngineRulesStableAcrossLevels) {
  Dataset dataset = RandomDataset(23, 400, 5, 4);
  std::vector<LocalizedQuery> queries = {
      MakeQuery(0.1, 0.5, {{0, 0, 1}}),
      MakeQuery(0.05, 0.3, {{1, 0, 2}}),
  };

  ASSERT_TRUE(SetActiveSimdLevel(SimdLevel::kScalar));
  EngineOptions options;
  options.index.primary_support = 0.08;
  options.rulegen = WideRuleGen();
  options.calibrate = true;
  auto reference = Engine::Build(dataset, options);
  ASSERT_TRUE(reference.ok());
  std::vector<RuleSet> expected;
  for (const LocalizedQuery& query : queries) {
    auto result = (*reference)->Execute(query);
    ASSERT_TRUE(result.ok());
    expected.push_back(result->rules);
  }

  for (SimdLevel level : SupportedLevels()) {
    if (level == SimdLevel::kScalar) continue;
    ASSERT_TRUE(SetActiveSimdLevel(level));
    auto engine = Engine::Build(dataset, options);
    ASSERT_TRUE(engine.ok());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto result = (*engine)->Execute(queries[qi]);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->rules.SameAs(expected[qi]))
          << "query " << qi << " @" << SimdLevelName(level);
    }
  }
}

}  // namespace
}  // namespace colarm
