#include "core/query_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

struct Env {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<MipIndex> index;

  static Env Make(uint64_t seed) {
    Env env;
    env.data = std::make_unique<Dataset>(RandomDataset(seed, 250, 5, 4));
    auto built = MipIndex::Build(*env.data, {.primary_support = 0.2});
    EXPECT_TRUE(built.ok());
    env.index = std::make_unique<MipIndex>(std::move(built.value()));
    return env;
  }

  Rect Box(std::vector<RangeSelection> ranges) const {
    LocalizedQuery query;
    query.ranges = std::move(ranges);
    return query.ToRect(data->schema());
  }
};

QueryCacheOptions Enabled(size_t budget = size_t{64} << 20) {
  QueryCacheOptions options;
  options.byte_budget = budget;
  return options;
}

TEST(QueryCacheTest, ColdMissThenExactHit) {
  Env env = Env::Make(1);
  QueryCache cache(*env.index, Enabled());
  Rect box = env.Box({{0, 0, 1}});

  EXPECT_EQ(cache.Probe(box).tier, CacheTier::kNone);
  uint64_t checks = 0;
  auto cold = cache.Acquire(box, &checks);
  EXPECT_EQ(cold.hint.tier, CacheTier::kNone);
  EXPECT_EQ(checks, env.data->num_records());
  FocalSubset expected = FocalSubset::Materialize(*env.data, box);
  EXPECT_EQ(cold.subset.tids, expected.tids);

  // Second acquisition: exact hit, identical subset, same cold price.
  CacheHint hint = cache.Probe(box);
  EXPECT_EQ(hint.tier, CacheTier::kExact);
  EXPECT_EQ(hint.cached_size, static_cast<double>(expected.tids.size()));
  checks = 0;
  auto warm = cache.Acquire(box, &checks);
  EXPECT_EQ(warm.hint.tier, CacheTier::kExact);
  EXPECT_EQ(warm.hint.cached_size, hint.cached_size);
  EXPECT_EQ(checks, env.data->num_records());
  EXPECT_EQ(warm.subset.tids, expected.tids);

  CacheTelemetry t = cache.telemetry();
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.hits_exact, 1u);
  EXPECT_EQ(t.entries, 1u);
  EXPECT_GT(t.bytes, 0u);
}

TEST(QueryCacheTest, UnconstrainedBoxChargesNothing) {
  Env env = Env::Make(2);
  QueryCache cache(*env.index, Enabled());
  Rect box = env.Box({});  // full-domain box: the cold scan is free too
  uint64_t checks = 0;
  auto lease = cache.Acquire(box, &checks);
  EXPECT_EQ(checks, 0u);
  EXPECT_EQ(lease.subset.tids.size(), env.data->num_records());
}

TEST(QueryCacheTest, DerivedSubsetMatchesColdMaterialization) {
  Env env = Env::Make(3);
  QueryCache cache(*env.index, Enabled());

  Rect outer = env.Box({{0, 0, 2}});
  uint64_t ignored = 0;
  cache.Acquire(outer, &ignored);

  // Drill-downs narrowing one and two attributes, both contained in outer.
  for (const auto& ranges :
       {std::vector<RangeSelection>{{0, 0, 1}},
        std::vector<RangeSelection>{{0, 1, 2}, {2, 0, 1}}}) {
    Rect inner = env.Box(ranges);
    CacheHint hint = cache.Probe(inner);
    ASSERT_EQ(hint.tier, CacheTier::kContainment);
    auto lease = cache.Acquire(inner, &ignored);
    EXPECT_EQ(lease.hint.tier, CacheTier::kContainment);
    FocalSubset expected = FocalSubset::Materialize(*env.data, inner);
    EXPECT_EQ(lease.subset.tids, expected.tids);
    // The derived subset is now resident: the same box hits exactly.
    EXPECT_EQ(cache.Probe(inner).tier, CacheTier::kExact);
  }
  EXPECT_EQ(cache.telemetry().hits_containment, 2u);
}

TEST(QueryCacheTest, ContainmentPrefersSmallestSource) {
  Env env = Env::Make(4);
  QueryCache cache(*env.index, Enabled());
  uint64_t ignored = 0;
  auto wide = cache.Acquire(env.Box({{0, 0, 3}}), &ignored);
  auto tight = cache.Acquire(env.Box({{0, 0, 2}}), &ignored);
  ASSERT_LT(tight.subset.tids.size(), wide.subset.tids.size());
  CacheHint hint = cache.Probe(env.Box({{0, 0, 1}}));
  ASSERT_EQ(hint.tier, CacheTier::kContainment);
  EXPECT_EQ(hint.cached_size, static_cast<double>(tight.subset.tids.size()));
}

TEST(QueryCacheTest, LruEvictionUnderTightBudget) {
  Env env = Env::Make(5);
  // Budget fits roughly one subset: every new box evicts the stalest.
  QueryCache cache(*env.index, Enabled(1500));
  uint64_t ignored = 0;
  Rect a = env.Box({{0, 0, 1}});
  Rect b = env.Box({{1, 0, 1}});
  cache.Acquire(a, &ignored);
  cache.Acquire(b, &ignored);
  CacheTelemetry t = cache.telemetry();
  EXPECT_GT(t.evictions, 0u);
  EXPECT_LE(t.bytes, 1500u);
  // `a` was evicted (least recently used): probing it misses.
  EXPECT_EQ(cache.Probe(a).tier, CacheTier::kNone);
}

// A miss, a containment hit, a second containment hit from the same wide
// entry (the narrow slab cannot serve it), a disjoint miss, and an exact
// hit. Every served subset equals the cold materialization, and state and
// bytes are a pure function of the acquisition sequence.
TEST(QueryCacheTest, DeterministicStateAcrossInstances) {
  Env env = Env::Make(6);
  struct Outcome {
    std::vector<std::vector<Tid>> tids;
    CacheTelemetry telemetry;
  };
  const std::vector<std::vector<RangeSelection>> sequence = {
      {{0, 0, 2}}, {{0, 2, 2}}, {{0, 0, 1}}, {{1, 0, 1}}, {{0, 0, 2}}};
  auto run = [&]() {
    QueryCache cache(*env.index, Enabled());
    uint64_t ignored = 0;
    Outcome out;
    for (const auto& ranges : sequence) {
      out.tids.push_back(cache.Acquire(env.Box(ranges), &ignored).subset.tids);
    }
    out.telemetry = cache.telemetry();
    return out;
  };
  const Outcome base = run();
  EXPECT_EQ(base.telemetry.misses, 2u);
  EXPECT_EQ(base.telemetry.hits_containment, 2u);
  EXPECT_EQ(base.telemetry.hits_exact, 1u);
  for (size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(base.tids[i],
              FocalSubset::Materialize(*env.data, env.Box(sequence[i])).tids);
  }
  const Outcome again = run();
  EXPECT_EQ(again.tids, base.tids);
  EXPECT_EQ(again.telemetry.hits_exact, base.telemetry.hits_exact);
  EXPECT_EQ(again.telemetry.hits_containment, base.telemetry.hits_containment);
  EXPECT_EQ(again.telemetry.misses, base.telemetry.misses);
  EXPECT_EQ(again.telemetry.evictions, base.telemetry.evictions);
  EXPECT_EQ(again.telemetry.admission_rejects,
            base.telemetry.admission_rejects);
  EXPECT_EQ(again.telemetry.bytes, base.telemetry.bytes);
  EXPECT_EQ(again.telemetry.entries, base.telemetry.entries);
}

// Two resident slabs that tile a box without either containing it: the
// box is a plain miss, the probe and the acquisition agree, and the cold
// scan serves the exact subset.
TEST(QueryCacheTest, AdjacentSlabUnionIsAMiss) {
  Env env = Env::Make(11);
  QueryCache cache(*env.index, Enabled());
  uint64_t ignored = 0;
  cache.Acquire(env.Box({{0, 0, 1}}), &ignored);
  cache.Acquire(env.Box({{0, 2, 2}}), &ignored);

  Rect q = env.Box({{0, 0, 2}});
  FocalSubset expected = FocalSubset::Materialize(*env.data, q);
  ASSERT_LT(expected.tids.size(), env.data->num_records());
  CacheHint hint = cache.Probe(q);
  EXPECT_EQ(hint.tier, CacheTier::kNone);
  EXPECT_EQ(hint.cached_size, 0.0);

  uint64_t checks = 0;
  auto lease = cache.Acquire(q, &checks);
  EXPECT_EQ(lease.hint.tier, hint.tier);
  EXPECT_EQ(checks, env.data->num_records());
  EXPECT_EQ(lease.subset.tids, expected.tids);
  EXPECT_EQ(cache.telemetry().misses, 3u);
  EXPECT_EQ(cache.telemetry().hits_containment, 0u);
  EXPECT_EQ(cache.Probe(q).tier, CacheTier::kExact);
}

TEST(QueryCacheTest, MemoCommitAndReplay) {
  Env env = Env::Make(7);
  QueryCache cache(*env.index, Enabled());
  Rect box = env.Box({{0, 0, 1}});
  uint64_t ignored = 0;
  cache.Acquire(box, &ignored);
  const std::string key = CanonicalBoxKey(box);

  EXPECT_EQ(cache.MemoLookup(key, "", 3), nullptr);
  const std::vector<uint32_t> table{20, 18, 17, 17};
  auto txn = cache.BeginTxn(box);
  txn->RecordTable(3, table);
  // Nothing visible until commit.
  EXPECT_EQ(cache.MemoLookup(key, "", 3), nullptr);
  cache.Commit(txn.get());
  auto memo = cache.MemoLookup(key, "", 3);
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->superset_counts, table);

  // A later commit of the same itemset keeps the published entry.
  const uint64_t bytes = cache.telemetry().bytes;
  auto again = cache.BeginTxn(box);
  again->RecordTable(3, table);
  cache.Commit(again.get());
  EXPECT_EQ(cache.MemoLookup(key, "", 3), memo);
  EXPECT_EQ(cache.telemetry().bytes, bytes);
}

TEST(QueryCacheTest, MemoCounterReplaysTableExactly) {
  auto memo = std::make_shared<const CountMemoEntry>(
      CountMemoEntry{{50, 45, 43, 40}});
  const std::vector<Tid> tids(60);
  LocalSubsetCounter counter({4, 9}, tids, memo->superset_counts);
  EXPECT_EQ(counter.CountFull(), 40u);
  EXPECT_EQ(counter.base_size(), 60u);
  EXPECT_EQ(counter.record_checks(), 60u);
  EXPECT_EQ(counter.CountOf(std::vector<ItemId>{}), 50u);
  EXPECT_EQ(counter.CountOf(std::vector<ItemId>{4}), 45u);
  EXPECT_EQ(counter.CountOf(std::vector<ItemId>{9}), 43u);
  EXPECT_EQ(counter.CountOf(std::vector<ItemId>{4, 9}), 40u);
  // Items outside the base itemset can never be subsets: count 0.
  EXPECT_EQ(counter.CountOf(std::vector<ItemId>{7}), 0u);
}

TEST(QueryCacheTest, CommitToEvictedBoxIsDropped) {
  Env env = Env::Make(8);
  QueryCache cache(*env.index, Enabled(1500));
  Rect a = env.Box({{0, 0, 1}});
  uint64_t ignored = 0;
  cache.Acquire(a, &ignored);
  auto txn = cache.BeginTxn(a);
  const std::vector<uint32_t> table{9, 5};
  txn->RecordTable(1, table);
  // Evict `a` by inserting another box under the one-subset budget.
  cache.Acquire(env.Box({{1, 0, 1}}), &ignored);
  ASSERT_EQ(cache.Probe(a).tier, CacheTier::kNone);
  cache.Commit(txn.get());  // must not resurrect the entry
  EXPECT_EQ(cache.MemoLookup(CanonicalBoxKey(a), "", 1), nullptr);
  EXPECT_EQ(cache.Probe(a).tier, CacheTier::kNone);
}

TEST(QueryCacheTest, ClearDropsResidencyButKeepsTotals) {
  Env env = Env::Make(9);
  QueryCache cache(*env.index, Enabled());
  uint64_t ignored = 0;
  cache.Acquire(env.Box({{0, 0, 1}}), &ignored);
  cache.Clear();
  CacheTelemetry t = cache.telemetry();
  EXPECT_EQ(t.bytes, 0u);
  EXPECT_EQ(t.entries, 0u);
  EXPECT_EQ(t.misses, 1u);
}

// ---------------------------------------------------------------------
// Scan-resistant admission: TinyLFU sketch + 2Q segments.
// ---------------------------------------------------------------------

TEST(QueryCacheTest, ScanResistantAdmissionKeepsHotEntries) {
  Env env = Env::Make(12);
  Rect h1 = env.Box({{0, 0, 1}});
  Rect h2 = env.Box({{1, 0, 1}});

  // Measure the two hot entries' resident footprint with a roomy cache.
  size_t b1 = 0;
  size_t b2 = 0;
  {
    QueryCache probe(*env.index, Enabled());
    uint64_t ignored = 0;
    probe.Acquire(h1, &ignored);
    b1 = probe.telemetry().bytes;
    probe.Acquire(h2, &ignored);
    b2 = probe.telemetry().bytes - b1;
  }
  ASSERT_GT(b1, 0u);
  ASSERT_GT(b2, 0u);

  // A budget that fits exactly the two hot boxes, which a drill-down
  // session then makes sketch-hot (three requests each).
  QueryCache cache(*env.index, Enabled(b1 + b2));
  uint64_t ignored = 0;
  for (int i = 0; i < 3; ++i) {
    cache.Acquire(h1, &ignored);
  }
  for (int i = 0; i < 3; ++i) {
    cache.Acquire(h2, &ignored);
  }
  ASSERT_EQ(cache.telemetry().entries, 2u);
  ASSERT_EQ(cache.telemetry().evictions, 0u);

  // A one-off sweep across the remaining axes. Pure LRU would flush the
  // drill-down set; the TinyLFU gate compares each probation victim's
  // sketch frequency (3) against the newcomer's (1) and drops the
  // newcomer instead.
  const std::vector<Rect> sweep = {env.Box({{2, 0, 1}}), env.Box({{3, 0, 1}}),
                                   env.Box({{4, 0, 1}})};
  for (const Rect& box : sweep) {
    cache.Acquire(box, &ignored);
  }

  CacheTelemetry t = cache.telemetry();
  EXPECT_EQ(t.admission_rejects, 3u);
  EXPECT_EQ(t.evictions, 0u);
  EXPECT_EQ(t.entries, 2u);
  EXPECT_EQ(cache.Probe(h1).tier, CacheTier::kExact);
  EXPECT_EQ(cache.Probe(h2).tier, CacheTier::kExact);
  for (const Rect& box : sweep) {
    EXPECT_EQ(cache.Probe(box).tier, CacheTier::kNone);
  }
}

TEST(QueryCacheTest, EngineGatesCacheOnOptions) {
  Env env = Env::Make(10);
  EngineOptions off;  // defaults: cache disabled
  off.index.primary_support = 0.2;
  off.calibrate = false;
  auto engine_off = Engine::Build(*env.data, off);
  ASSERT_TRUE(engine_off.ok());
  EXPECT_EQ((*engine_off)->cache(), nullptr);

  EngineOptions on = off;
  on.cache = QueryCacheOptions{};  // the default budget
  auto engine_on = Engine::Build(*env.data, on);
  ASSERT_TRUE(engine_on.ok());
  ASSERT_NE((*engine_on)->cache(), nullptr);

  // Telemetry flows into results: a repeated query is an exact hit.
  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.4;
  query.minconf = 0.6;
  auto first = (*engine_on)->Execute(query);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->cache.misses, 1u);
  EXPECT_EQ(first->cache.hits_exact, 0u);
  auto second = (*engine_on)->Execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache.hits_exact, 1u);
  EXPECT_EQ(second->cache.misses, 0u);
  EXPECT_GT(second->cache.bytes, 0u);
}

}  // namespace
}  // namespace colarm
