#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/cache_persist.h"
#include "core/engine.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;
using testing_util::ReferenceLocalizedRules;

// The cache's headline contract: a warm engine answers every query byte-
// identically to a cold one — same rules in the same canonical order, same
// effort counters, same chosen plan. Only wall time and the decision's
// cache-provenance field may differ.

void ExpectSameEffort(const PlanStats& cold, const PlanStats& warm,
                      const std::string& context) {
  EXPECT_EQ(cold.subset_size, warm.subset_size) << context;
  EXPECT_EQ(cold.local_min_count, warm.local_min_count) << context;
  EXPECT_EQ(cold.candidates_search, warm.candidates_search) << context;
  EXPECT_EQ(cold.candidates_contained, warm.candidates_contained) << context;
  EXPECT_EQ(cold.candidates_qualified, warm.candidates_qualified) << context;
  EXPECT_EQ(cold.record_checks, warm.record_checks) << context;
  EXPECT_EQ(cold.rtree_nodes_visited, warm.rtree_nodes_visited) << context;
  EXPECT_EQ(cold.rtree_pruned_by_support, warm.rtree_pruned_by_support)
      << context;
  EXPECT_EQ(cold.rules_considered, warm.rules_considered) << context;
  EXPECT_EQ(cold.rules_emitted, warm.rules_emitted) << context;
  EXPECT_EQ(cold.itemsets_skipped, warm.itemsets_skipped) << context;
  EXPECT_EQ(cold.local_cfis, warm.local_cfis) << context;
}

void ExpectSameRules(const RuleSet& cold, const RuleSet& warm,
                     const std::string& context) {
  ASSERT_EQ(cold.rules.size(), warm.rules.size()) << context;
  for (size_t r = 0; r < cold.rules.size(); ++r) {
    EXPECT_EQ(cold.rules[r].antecedent, warm.rules[r].antecedent) << context;
    EXPECT_EQ(cold.rules[r].consequent, warm.rules[r].consequent) << context;
    EXPECT_EQ(cold.rules[r].itemset_count, warm.rules[r].itemset_count)
        << context;
    EXPECT_EQ(cold.rules[r].antecedent_count, warm.rules[r].antecedent_count)
        << context;
    EXPECT_EQ(cold.rules[r].base_count, warm.rules[r].base_count) << context;
  }
}

// An exploration session covering every reuse tier: a base region, a
// threshold sweep over it (count-memo hits), a drill-down contained in it
// (containment derivation), an exact repeat (exact hit), a disjoint
// region, and a vocabulary-restricted refinement.
std::vector<LocalizedQuery> SessionQueries() {
  std::vector<LocalizedQuery> queries;
  LocalizedQuery base;
  base.ranges = {{0, 0, 2}};
  base.minsupp = 0.3;
  base.minconf = 0.6;
  queries.push_back(base);
  for (double minsupp : {0.4, 0.5}) {
    LocalizedQuery sweep = base;
    sweep.minsupp = minsupp;
    queries.push_back(sweep);
  }
  LocalizedQuery drill;
  drill.ranges = {{0, 0, 1}, {2, 0, 2}};
  drill.minsupp = 0.35;
  drill.minconf = 0.55;
  queries.push_back(drill);
  queries.push_back(base);  // exact repeat
  LocalizedQuery other;
  other.ranges = {{1, 1, 3}};
  other.minsupp = 0.4;
  other.minconf = 0.5;
  queries.push_back(other);
  LocalizedQuery vocab = base;
  vocab.minsupp = 0.45;
  vocab.item_attrs = {1, 2, 3, 4};
  queries.push_back(vocab);
  return queries;
}

class SessionCacheEquivalenceTest
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(SessionCacheEquivalenceTest, WarmMatchesColdByteForByte) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(51, 260, 5, 4));

  EngineOptions cold_options;
  cold_options.index.primary_support = 0.2;
  cold_options.calibrate = false;
  cold_options.num_threads = 1;
  auto cold_engine = Engine::Build(*data, cold_options);
  ASSERT_TRUE(cold_engine.ok());

  EngineOptions warm_options = cold_options;
  warm_options.num_threads = num_threads;
  warm_options.cache = QueryCacheOptions{};
  auto warm_engine = Engine::Build(*data, warm_options);
  ASSERT_TRUE(warm_engine.ok());
  ASSERT_NE((*warm_engine)->cache(), nullptr);

  auto queries = SessionQueries();
  // Two passes through the warm engine: the first populates the cache, the
  // second runs fully hot. Both must match cold standalone execution.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto cold = (*cold_engine)->Execute(queries[i]);
      auto warm = (*warm_engine)->Execute(queries[i]);
      ASSERT_TRUE(cold.ok());
      ASSERT_TRUE(warm.ok());
      std::string context =
          "threads=" + std::to_string(num_threads) + " pass=" +
          std::to_string(pass) + " query " + std::to_string(i);
      EXPECT_TRUE(
          cold->rules.SameAs(ReferenceLocalizedRules((*cold_engine)->index(),
                                                     queries[i])))
          << context;
      ExpectSameRules(cold->rules, warm->rules, context);
      ExpectSameEffort(cold->stats, warm->stats, context);
      EXPECT_EQ(cold->plan_used, warm->plan_used) << context;
      EXPECT_EQ(cold->decision.chosen, warm->decision.chosen) << context;
      // Only the SELECT term may be repriced by the cache hint; every
      // other per-plan estimate field is hint-independent.
      for (size_t p = 0; p < cold->decision.estimates.size(); ++p) {
        const auto& ce = cold->decision.estimates[p];
        const auto& we = warm->decision.estimates[p];
        EXPECT_EQ(ce.plan, we.plan) << context;
        EXPECT_DOUBLE_EQ(ce.search, we.search) << context;
        EXPECT_DOUBLE_EQ(ce.eliminate, we.eliminate) << context;
        EXPECT_DOUBLE_EQ(ce.verify, we.verify) << context;
        EXPECT_DOUBLE_EQ(ce.mine, we.mine) << context;
      }
    }
  }

  // The hot pass actually reused state: every query's box is resident by
  // then, so all second-pass acquisitions were exact hits.
  CacheTelemetry t = (*warm_engine)->cache()->telemetry();
  EXPECT_GT(t.hits_exact, 0u);
  EXPECT_GT(t.hits_count_memo, 0u);
}

TEST_P(SessionCacheEquivalenceTest, ForcedPlansMatchColdAcrossAllSix) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(52, 220, 5, 4));

  EngineOptions cold_options;
  cold_options.index.primary_support = 0.2;
  cold_options.calibrate = false;
  cold_options.num_threads = 1;
  auto cold_engine = Engine::Build(*data, cold_options);
  ASSERT_TRUE(cold_engine.ok());

  EngineOptions warm_options = cold_options;
  warm_options.num_threads = num_threads;
  warm_options.cache = QueryCacheOptions{};
  auto warm_engine = Engine::Build(*data, warm_options);
  ASSERT_TRUE(warm_engine.ok());

  LocalizedQuery outer;
  outer.ranges = {{0, 0, 2}};
  outer.minsupp = 0.35;
  outer.minconf = 0.6;
  LocalizedQuery inner = outer;
  inner.ranges = {{0, 0, 1}};
  inner.minsupp = 0.45;

  for (int pass = 0; pass < 2; ++pass) {
    for (const LocalizedQuery& query : {outer, inner}) {
      for (PlanKind kind : kAllPlans) {
        auto cold = (*cold_engine)->ExecuteWithPlan(query, kind);
        auto warm = (*warm_engine)->ExecuteWithPlan(query, kind);
        ASSERT_TRUE(cold.ok());
        ASSERT_TRUE(warm.ok());
        std::string context = std::string("plan ") + PlanKindName(kind) +
                              " threads=" + std::to_string(num_threads) +
                              " pass=" + std::to_string(pass);
        ExpectSameRules(cold->rules, warm->rules, context);
        ExpectSameEffort(cold->stats, warm->stats, context);
      }
    }
  }
}

// Constrained queries through the session cache: a warm engine replaying a
// constrained exploration session (CONTAIN / EXCLUDE / pinned attributes /
// measure floors over shared and repeated boxes) answers byte-identically
// to a cold cache-less engine at every pool size.
TEST_P(SessionCacheEquivalenceTest, ConstrainedSessionMatchesCold) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(54, 240, 5, 4));
  const Schema& schema = data->schema();

  EngineOptions cold_options;
  cold_options.index.primary_support = 0.2;
  cold_options.calibrate = false;
  cold_options.num_threads = 1;
  auto cold_engine = Engine::Build(*data, cold_options);
  ASSERT_TRUE(cold_engine.ok());

  EngineOptions warm_options = cold_options;
  warm_options.num_threads = num_threads;
  warm_options.cache = QueryCacheOptions{};
  auto warm_engine = Engine::Build(*data, warm_options);
  ASSERT_TRUE(warm_engine.ok());

  // One box explored under shifting constraint sets — the interactive
  // loop's canonical shape — plus an unconstrained baseline of the same
  // box so every cache tier (exact, containment, memo) gets exercised
  // across the constraint-key boundary.
  LocalizedQuery base;
  base.ranges = {{0, 0, 2}};
  base.minsupp = 0.3;
  base.minconf = 0.5;
  std::vector<LocalizedQuery> queries = {base};
  LocalizedQuery contain = base;
  contain.constraints.must_contain = {schema.ItemOf(1, 0)};
  queries.push_back(contain);
  LocalizedQuery exclude = base;
  exclude.constraints.must_exclude = {schema.ItemOf(2, 1)};
  queries.push_back(exclude);
  LocalizedQuery pinned = base;
  pinned.constraints.antecedent_only = {3};
  queries.push_back(pinned);
  LocalizedQuery measured = base;
  measured.constraints.min_lift = 1.0;
  measured.constraints.min_cosine = 0.3;
  queries.push_back(measured);
  LocalizedQuery drill = contain;  // contained box, same constraint set
  drill.ranges = {{0, 0, 1}};
  drill.minsupp = 0.35;
  queries.push_back(drill);
  queries.push_back(contain);  // exact repeat of a constrained query

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto cold = (*cold_engine)->Execute(queries[i]);
      auto warm = (*warm_engine)->Execute(queries[i]);
      ASSERT_TRUE(cold.ok());
      ASSERT_TRUE(warm.ok());
      std::string context =
          "threads=" + std::to_string(num_threads) + " pass=" +
          std::to_string(pass) + " constrained query " + std::to_string(i);
      ExpectSameRules(cold->rules, warm->rules, context);
      ExpectSameEffort(cold->stats, warm->stats, context);
      EXPECT_EQ(cold->plan_used, warm->plan_used) << context;
    }
  }
  CacheTelemetry t = (*warm_engine)->cache()->telemetry();
  EXPECT_GT(t.hits_exact, 0u);
}

// An overlap-shaped session — adjacent slices later recombined, a wide
// region plus a slab later trimmed — answers byte-identically to a cold
// cache-less engine, and the optimizer's plan choice is untouched by the
// cache's SELECT repricing. A box that no single resident box contains is
// scanned cold.
TEST_P(SessionCacheEquivalenceTest, OverlapSessionMatchesCold) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(56, 260, 5, 4));

  EngineOptions cold_options;
  cold_options.index.primary_support = 0.2;
  cold_options.calibrate = false;
  cold_options.num_threads = 1;
  auto cold_engine = Engine::Build(*data, cold_options);
  ASSERT_TRUE(cold_engine.ok());

  EngineOptions warm_options = cold_options;
  warm_options.num_threads = num_threads;
  warm_options.cache = QueryCacheOptions{};
  auto warm_engine = Engine::Build(*data, warm_options);
  ASSERT_TRUE(warm_engine.ok());

  auto make = [](std::vector<RangeSelection> ranges, double minsupp) {
    LocalizedQuery query;
    query.ranges = std::move(ranges);
    query.minsupp = minsupp;
    query.minconf = 0.5;
    return query;
  };
  const std::vector<LocalizedQuery> queries = {
      make({{0, 0, 1}}, 0.35),          // left slice
      make({{0, 2, 2}}, 0.4),           // right slice
      make({{0, 0, 2}}, 0.3),           // their union: a miss
      make({{1, 0, 2}}, 0.3),           // wide region
      make({{1, 2, 2}}, 0.4),           // slab carved out of it
      make({{1, 0, 1}}, 0.35),          // wide minus slab: containment
      make({{0, 0, 2}}, 0.45),          // union box again: exact + memo
  };

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto cold = (*cold_engine)->Execute(queries[i]);
      auto warm = (*warm_engine)->Execute(queries[i]);
      ASSERT_TRUE(cold.ok());
      ASSERT_TRUE(warm.ok());
      std::string context =
          "threads=" + std::to_string(num_threads) + " pass=" +
          std::to_string(pass) + " overlap query " + std::to_string(i);
      ExpectSameRules(cold->rules, warm->rules, context);
      ExpectSameEffort(cold->stats, warm->stats, context);
      EXPECT_EQ(cold->plan_used, warm->plan_used) << context;
      EXPECT_EQ(cold->decision.chosen, warm->decision.chosen) << context;
    }
  }
  // Pass one: four misses, the slab and the trimmed box by containment,
  // the repeated union box exactly; pass two: every box exactly.
  CacheTelemetry t = (*warm_engine)->cache()->telemetry();
  EXPECT_EQ(t.misses, 4u);
  EXPECT_EQ(t.hits_containment, 2u);
  EXPECT_EQ(t.hits_exact, 8u);
  EXPECT_EQ(t.hits_compose, 0u);
}

// Persisted warm start end to end: populate a cache, save it (format v4),
// load it into a *fresh* engine, and replay — every answer byte-identical
// to a cold cache-less engine, with the restored residency serving exact
// hits from the first query on.
TEST_P(SessionCacheEquivalenceTest, PersistedWarmMatchesCold) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(57, 240, 5, 4));
  const std::string path = ::testing::TempDir() + "/session_warm_" +
                           std::to_string(num_threads) + ".ccache";

  EngineOptions cold_options;
  cold_options.index.primary_support = 0.2;
  cold_options.calibrate = false;
  cold_options.num_threads = 1;
  auto cold_engine = Engine::Build(*data, cold_options);
  ASSERT_TRUE(cold_engine.ok());

  EngineOptions warm_options = cold_options;
  warm_options.num_threads = num_threads;
  warm_options.cache = QueryCacheOptions{};
  auto queries = SessionQueries();
  {
    auto first_session = Engine::Build(*data, warm_options);
    ASSERT_TRUE(first_session.ok());
    for (const LocalizedQuery& query : queries) {
      ASSERT_TRUE((*first_session)->Execute(query).ok());
    }
    ASSERT_TRUE(SaveQueryCache(*(*first_session)->cache(),
                               (*first_session)->index(), path)
                    .ok());
  }

  auto restarted = Engine::Build(*data, warm_options);
  ASSERT_TRUE(restarted.ok());
  Status loaded = LoadQueryCache((*restarted)->index(), path,
                                 (*restarted)->cache());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto cold = (*cold_engine)->Execute(queries[i]);
    auto warm = (*restarted)->Execute(queries[i]);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    std::string context =
        "threads=" + std::to_string(num_threads) + " restarted query " +
        std::to_string(i);
    ExpectSameRules(cold->rules, warm->rules, context);
    ExpectSameEffort(cold->stats, warm->stats, context);
    EXPECT_EQ(cold->plan_used, warm->plan_used) << context;
    EXPECT_EQ(cold->decision.chosen, warm->decision.chosen) << context;
  }
  // The restored residency served the replay warm, not cold.
  CacheTelemetry t = (*restarted)->cache()->telemetry();
  EXPECT_GT(t.hits_exact, 0u);
  EXPECT_GT(t.hits_count_memo, 0u);
  std::remove(path.c_str());
}

// ARM mining memo: a repeated ARM-plan execution replays its qualified
// set from the tier-3 memo instead of re-running CHARM — with
// byte-identical rules and effort counters — both in-session and across a
// v4 save/load restart.
TEST_P(SessionCacheEquivalenceTest, ArmMineMemoReplayMatchesCold) {
  const unsigned num_threads = GetParam();
  auto data = std::make_unique<Dataset>(RandomDataset(58, 240, 5, 4));
  const std::string path = ::testing::TempDir() + "/arm_memo_" +
                           std::to_string(num_threads) + ".ccache";

  EngineOptions cold_options;
  cold_options.index.primary_support = 0.2;
  cold_options.calibrate = false;
  cold_options.num_threads = 1;
  auto cold_engine = Engine::Build(*data, cold_options);
  ASSERT_TRUE(cold_engine.ok());

  EngineOptions warm_options = cold_options;
  warm_options.num_threads = num_threads;
  warm_options.cache = QueryCacheOptions{};
  auto warm_engine = Engine::Build(*data, warm_options);
  ASSERT_TRUE(warm_engine.ok());

  LocalizedQuery query;
  query.ranges = {{0, 0, 2}};
  query.minsupp = 0.35;
  query.minconf = 0.6;

  auto cold = (*cold_engine)->ExecuteWithPlan(query, PlanKind::kARM);
  ASSERT_TRUE(cold.ok());
  auto first = (*warm_engine)->ExecuteWithPlan(query, PlanKind::kARM);
  ASSERT_TRUE(first.ok());
  const uint64_t memo_before =
      (*warm_engine)->cache()->telemetry().hits_count_memo;
  auto replay = (*warm_engine)->ExecuteWithPlan(query, PlanKind::kARM);
  ASSERT_TRUE(replay.ok());
  std::string context =
      "threads=" + std::to_string(num_threads);
  // The second run served the mining result from the memo...
  EXPECT_GT((*warm_engine)->cache()->telemetry().hits_count_memo,
            memo_before)
      << context;
  // ...and stayed byte-identical to cold execution.
  ExpectSameRules(cold->rules, replay->rules, context);
  ExpectSameEffort(cold->stats, replay->stats, context);

  // The ARM memo survives persistence: a restarted engine replays the
  // mining result on its *first* execution of the query.
  ASSERT_TRUE(SaveQueryCache(*(*warm_engine)->cache(),
                             (*warm_engine)->index(), path)
                  .ok());
  auto restarted = Engine::Build(*data, warm_options);
  ASSERT_TRUE(restarted.ok());
  ASSERT_TRUE(
      LoadQueryCache((*restarted)->index(), path, (*restarted)->cache())
          .ok());
  auto warm_restart = (*restarted)->ExecuteWithPlan(query, PlanKind::kARM);
  ASSERT_TRUE(warm_restart.ok());
  EXPECT_GT((*restarted)->cache()->telemetry().hits_count_memo, 0u)
      << context;
  ExpectSameRules(cold->rules, warm_restart->rules, context);
  ExpectSameEffort(cold->stats, warm_restart->stats, context);
  std::remove(path.c_str());
}

// Count-memo isolation: memo entries are namespaced by the constraint
// cache key, so a query must never consume memos written under a
// different constraint set for the same box — and must hit its own.
TEST(SessionCacheEquivalenceTest, MemoEntriesNeverLeakAcrossConstraintKeys) {
  auto data = std::make_unique<Dataset>(RandomDataset(55, 240, 5, 4));
  const Schema& schema = data->schema();

  EngineOptions options;
  options.index.primary_support = 0.2;
  options.calibrate = false;
  options.num_threads = 1;
  options.cache = QueryCacheOptions{};
  auto engine = Engine::Build(*data, options);
  ASSERT_TRUE(engine.ok());
  QueryCache* cache = (*engine)->cache();
  ASSERT_NE(cache, nullptr);

  LocalizedQuery plain;
  plain.ranges = {{0, 0, 2}};
  plain.minsupp = 0.3;
  plain.minconf = 0.5;
  LocalizedQuery constrained = plain;
  constrained.constraints.must_contain = {schema.ItemOf(1, 0)};
  LocalizedQuery other = plain;
  other.constraints.must_exclude = {schema.ItemOf(2, 1)};

  // Populate memos under the unconstrained ("") key.
  ASSERT_TRUE((*engine)->Execute(plain).ok());
  const uint64_t after_plain = cache->telemetry().hits_count_memo;

  // Same box, different constraint keys: neither run may consume the
  // unconstrained memos (or each other's).
  ASSERT_TRUE((*engine)->Execute(constrained).ok());
  EXPECT_EQ(cache->telemetry().hits_count_memo, after_plain)
      << "constrained query consumed unconstrained count memos";
  ASSERT_TRUE((*engine)->Execute(other).ok());
  EXPECT_EQ(cache->telemetry().hits_count_memo, after_plain)
      << "EXCLUDE query consumed a foreign constraint key's memos";

  // Replaying each query hits its OWN namespace.
  ASSERT_TRUE((*engine)->Execute(plain).ok());
  const uint64_t plain_hot = cache->telemetry().hits_count_memo;
  EXPECT_GT(plain_hot, after_plain);
  ASSERT_TRUE((*engine)->Execute(constrained).ok());
  const uint64_t constrained_hot = cache->telemetry().hits_count_memo;
  EXPECT_GT(constrained_hot, plain_hot)
      << "constrained replay missed its own memo namespace";
}

INSTANTIATE_TEST_SUITE_P(Threads, SessionCacheEquivalenceTest,
                         ::testing::Values(1u, 2u, 8u));

// Default options build no cache at all: behaviour (including telemetry
// fields) is exactly the cache-less engine's.
TEST(SessionCacheEquivalenceTest, DefaultOptionsStayCacheless) {
  auto data = std::make_unique<Dataset>(RandomDataset(53, 200, 4, 4));
  EngineOptions options;
  options.index.primary_support = 0.2;
  options.calibrate = false;
  auto engine = Engine::Build(*data, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->cache(), nullptr);
  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.4;
  query.minconf = 0.6;
  auto result = (*engine)->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cache.misses, 0u);
  EXPECT_EQ(result->cache.hits_exact, 0u);
  EXPECT_EQ(result->cache.bytes, 0u);
  EXPECT_EQ(result->decision.cache.tier, CacheTier::kNone);
}

}  // namespace
}  // namespace colarm
