#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/salary_dataset.h"
#include "mip/serialize.h"
#include "plans/plans.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::ExpectSameEffort;
using testing_util::RandomDataset;
using testing_util::ReferenceLocalizedRules;

// Element-wise rule comparison (stronger than SameAs's set semantics: the
// canonical order itself must match, i.e. output is byte-identical).
void ExpectSameRules(const RuleSet& seq, const RuleSet& par,
                     const std::string& context) {
  ASSERT_EQ(seq.rules.size(), par.rules.size()) << context;
  for (size_t r = 0; r < seq.rules.size(); ++r) {
    EXPECT_EQ(seq.rules[r].antecedent, par.rules[r].antecedent) << context;
    EXPECT_EQ(seq.rules[r].consequent, par.rules[r].consequent) << context;
    EXPECT_EQ(seq.rules[r].itemset_count, par.rules[r].itemset_count)
        << context;
    EXPECT_EQ(seq.rules[r].antecedent_count, par.rules[r].antecedent_count)
        << context;
    EXPECT_EQ(seq.rules[r].base_count, par.rules[r].base_count) << context;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<LocalizedQuery> SweepQueries(uint64_t seed) {
  Rng rng(seed * 7919);
  std::vector<LocalizedQuery> queries;
  for (int q = 0; q < 4; ++q) {
    LocalizedQuery query;
    query.minsupp = 0.3 + 0.1 * (q % 3);
    query.minconf = 0.5 + 0.1 * (q % 4);
    uint32_t range_attrs = 1 + static_cast<uint32_t>(rng.Uniform(3));
    for (uint32_t i = 0; i < range_attrs; ++i) {
      AttrId attr = static_cast<AttrId>(rng.Uniform(5));
      bool already = false;
      for (const auto& r : query.ranges) already |= (r.attr == attr);
      if (already) continue;
      ValueId lo = static_cast<ValueId>(rng.Uniform(4));
      ValueId hi =
          static_cast<ValueId>(std::min<uint64_t>(3, lo + rng.Uniform(3)));
      query.ranges.push_back({attr, lo, hi});
    }
    if (rng.Bernoulli(0.4)) query.item_attrs = {0, 1, 2, 3};
    queries.push_back(std::move(query));
  }
  return queries;
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

// Every plan, executed with a worker pool, returns rules in the same
// canonical order with the same counts and reports the same effort
// counters as the exact sequential path.
TEST_P(ParallelEquivalenceTest, PlansMatchSequentialByteForByte) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(11, 220, 5, 4));
  auto index = MipIndex::Build(*data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());

  ThreadPool pool(num_threads);
  RuleGenOptions wide;
  wide.max_itemset_length = 31;

  for (const LocalizedQuery& query : SweepQueries(11)) {
    RuleSet expected = ReferenceLocalizedRules(*index, query);
    for (PlanKind kind : kAllPlans) {
      PlanExecOptions seq_exec;
      seq_exec.rulegen = wide;
      auto seq = ExecutePlan(kind, *index, query, seq_exec);
      ASSERT_TRUE(seq.ok()) << PlanKindName(kind);

      PlanExecOptions par_exec = seq_exec;
      par_exec.pool = &pool;
      auto par = ExecutePlan(kind, *index, query, par_exec);
      ASSERT_TRUE(par.ok()) << PlanKindName(kind);

      std::string context = std::string("plan ") + PlanKindName(kind) +
                            " threads=" + std::to_string(num_threads) +
                            " query " + query.ToString(data->schema());
      EXPECT_TRUE(seq->rules.SameAs(expected)) << context;
      ExpectSameRules(seq->rules, par->rules, context);
      ExpectSameEffort(seq->stats, par->stats, context);
    }
  }
}

// A parallel engine (index built with a pool, operators run with it) gives
// the same answers and effort as a sequential engine over the same data.
TEST_P(ParallelEquivalenceTest, EngineMatchesSequentialEngine) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(23, 220, 5, 4));

  EngineOptions seq_options;
  seq_options.index.primary_support = 0.2;
  seq_options.calibrate = false;
  seq_options.num_threads = 1;
  auto seq_engine = Engine::Build(*data, seq_options);
  ASSERT_TRUE(seq_engine.ok());

  EngineOptions par_options = seq_options;
  par_options.num_threads = num_threads;
  auto par_engine = Engine::Build(*data, par_options);
  ASSERT_TRUE(par_engine.ok());

  for (const LocalizedQuery& query : SweepQueries(23)) {
    for (PlanKind kind : kAllPlans) {
      auto seq = (*seq_engine)->ExecuteWithPlan(query, kind);
      auto par = (*par_engine)->ExecuteWithPlan(query, kind);
      ASSERT_TRUE(seq.ok());
      ASSERT_TRUE(par.ok());
      std::string context = std::string("plan ") + PlanKindName(kind) +
                            " threads=" + std::to_string(num_threads);
      ExpectSameRules(seq->rules, par->rules, context);
      ExpectSameEffort(seq->stats, par->stats, context);
    }
    // A forced plan skips the optimizer; ask it directly.
    EXPECT_EQ((*seq_engine)->Explain(query)->chosen,
              (*par_engine)->Explain(query)->chosen)
        << "threads=" << num_threads;
  }
}

// The offline build is deterministic too: a pool-built MIP-index serializes
// to exactly the same bytes as the sequential build (same CFIs, same order,
// same bounding boxes).
TEST_P(ParallelEquivalenceTest, IndexBuildMatchesSequentialBytes) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(37, 300, 5, 4));
  MipIndexOptions options;
  options.primary_support = 0.15;

  auto seq = MipIndex::Build(*data, options);
  ASSERT_TRUE(seq.ok());
  ThreadPool pool(num_threads);
  auto par = MipIndex::Build(*data, options, &pool);
  ASSERT_TRUE(par.ok());

  ASSERT_EQ(seq->num_mips(), par->num_mips());
  std::string seq_path =
      ::testing::TempDir() + "colarm_seq_" + std::to_string(num_threads);
  std::string par_path =
      ::testing::TempDir() + "colarm_par_" + std::to_string(num_threads);
  ASSERT_TRUE(SaveMipIndex(*seq, seq_path).ok());
  ASSERT_TRUE(SaveMipIndex(*par, par_path).ok());
  std::string seq_bytes = ReadFile(seq_path);
  std::string par_bytes = ReadFile(par_path);
  std::remove(seq_path.c_str());
  std::remove(par_path.c_str());
  ASSERT_FALSE(seq_bytes.empty());
  EXPECT_EQ(seq_bytes, par_bytes);
}

// A batch on an N-thread engine answers every query exactly as its
// standalone execution does: the same rules in the same order, the same
// plan, and the same effort counters (SELECT's record checks included), on
// a first and a second pass.
TEST_P(ParallelEquivalenceTest, BatchMatchesStandaloneExecution) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(41, 250, 5, 4));
  EngineOptions reference_options;
  reference_options.index.primary_support = 0.2;
  reference_options.calibrate = false;
  reference_options.num_threads = 1;
  auto reference = Engine::Build(*data, reference_options);
  ASSERT_TRUE(reference.ok());

  // Session mix: threshold sweep over one region, a second region, an
  // exact duplicate, and a vocabulary drill-down.
  std::vector<LocalizedQuery> queries;
  for (double minsupp : {0.3, 0.4, 0.5}) {
    LocalizedQuery q;
    q.ranges = {{0, 0, 1}};
    q.minsupp = minsupp;
    q.minconf = 0.6;
    queries.push_back(q);
  }
  LocalizedQuery other;
  other.ranges = {{1, 0, 0}};
  other.minsupp = 0.35;
  other.minconf = 0.55;
  queries.push_back(other);
  queries.push_back(queries[1]);
  LocalizedQuery drill = queries[0];
  drill.minsupp = 0.4;
  drill.item_attrs = {1, 2, 3};
  queries.push_back(drill);

  std::vector<QueryResult> standalone;
  for (const LocalizedQuery& query : queries) {
    auto result = (*reference)->Execute(query);
    ASSERT_TRUE(result.ok());
    standalone.push_back(std::move(result.value()));
  }

  EngineOptions options = reference_options;
  options.num_threads = num_threads;
  auto engine = Engine::Build(*data, options);
  ASSERT_TRUE(engine.ok());
  for (int pass = 0; pass < 2; ++pass) {
    auto results = (*engine)->ExecuteBatch(queries);
    const std::string context = "pass=" + std::to_string(pass) +
                                " threads=" + std::to_string(num_threads);
    ASSERT_EQ(results.size(), queries.size()) << context;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string qcontext = context + " query " + std::to_string(i);
      ASSERT_TRUE(results[i].ok()) << qcontext;
      EXPECT_EQ(results[i]->plan_used, standalone[i].plan_used) << qcontext;
      ExpectSameRules(standalone[i].rules, results[i]->rules, qcontext);
      ExpectSameEffort(standalone[i].stats, results[i]->stats, qcontext);
    }
  }
}

// An invalid query fails its own slot at any thread count; its neighbours
// still answer.
TEST_P(ParallelEquivalenceTest, BatchKeepsValidationFailureInItsSlot) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(MakeSalaryDataset());
  EngineOptions engine_options;
  engine_options.index.primary_support = 0.27;
  engine_options.calibrate = false;
  engine_options.num_threads = num_threads;
  auto engine = Engine::Build(*data, engine_options);
  ASSERT_TRUE(engine.ok());

  std::vector<LocalizedQuery> queries;
  LocalizedQuery good;
  good.ranges = {{2, 2, 2}};
  good.minsupp = 0.5;
  good.minconf = 0.5;
  queries.push_back(good);
  LocalizedQuery bad;
  bad.ranges = {{99, 0, 0}};
  queries.push_back(bad);

  auto results = (*engine)->ExecuteBatch(queries);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, ParallelEquivalenceTest,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace colarm
