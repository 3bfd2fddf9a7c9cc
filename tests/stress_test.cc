#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "core/engine.h"
#include "core/query_parser.h"
#include "data/salary_dataset.h"
#include "rtree/bulk_load.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;
using testing_util::ReferenceLocalizedRules;

// ---------------------------------------------------------------------
// R-tree fuzz: a random interleaving of entry arrivals and searches. The
// MIP-index is only ever packed, so every search runs on a tree re-packed
// from the current entries (alternating the STR and caller-ordered
// loaders), with invariants checked continuously against a shadow set.

class RTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RTreeFuzzTest, InterleavedOperationsKeepInvariants) {
  Rng rng(GetParam());
  const uint32_t dims = 3;
  const uint32_t domain = 20;
  std::vector<RTreeEntry> shadow;
  RTree tree(dims);
  bool stale = false;
  uint32_t next_id = 0;
  uint32_t packs = 0;

  auto random_box = [&rng, dims, domain]() {
    Rect box = Rect::MakeEmpty(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      ValueId lo = static_cast<ValueId>(rng.Uniform(domain));
      ValueId hi = static_cast<ValueId>(
          std::min<uint64_t>(domain - 1, lo + rng.Uniform(6)));
      box.SetInterval(d, lo, hi);
    }
    return box;
  };
  auto repack = [&]() {
    if (!stale) return;
    tree = (packs++ % 2 == 0) ? BulkLoadSTR(dims, shadow)
                              : BulkLoadPacked(dims, shadow);
    stale = false;
  };

  for (int op = 0; op < 600; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.7 || shadow.empty()) {
      shadow.push_back({random_box(), next_id++,
                        static_cast<uint32_t>(rng.Uniform(100))});
      stale = true;
    } else {
      repack();
      Rect query = random_box();
      std::set<uint32_t> expected;
      for (const RTreeEntry& e : shadow) {
        if (query.Intersects(e.box)) expected.insert(e.id);
      }
      Bitmap hits(next_id);
      tree.Search(query, &hits, &hits);
      std::set<uint32_t> actual;
      hits.ForEachSet([&actual](uint32_t id) { actual.insert(id); });
      ASSERT_EQ(actual, expected) << "at op " << op;
    }
    if (op % 50 == 0) {
      repack();
      ASSERT_TRUE(tree.CheckInvariants()) << "at op " << op;
      ASSERT_EQ(tree.size(), shadow.size());
    }
  }
  repack();
  EXPECT_TRUE(tree.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeFuzzTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// ---------------------------------------------------------------------
// Randomized plan equivalence over a wider query space than the focused
// plan_equivalence_test sweep (random vocabularies, random boxes).

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, RandomQueriesAllPlansMatchReference) {
  auto data = std::make_unique<Dataset>(
      RandomDataset(GetParam(), 120, 6, 3));
  auto index = MipIndex::Build(*data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  Rng rng(GetParam() * 31 + 7);
  RuleGenOptions wide;
  wide.max_itemset_length = 31;

  for (int q = 0; q < 8; ++q) {
    LocalizedQuery query;
    query.minsupp = 0.2 + rng.NextDouble() * 0.7;
    query.minconf = 0.2 + rng.NextDouble() * 0.8;
    for (AttrId a = 0; a < 6; ++a) {
      if (rng.Bernoulli(0.4)) {
        ValueId lo = static_cast<ValueId>(rng.Uniform(3));
        ValueId hi = static_cast<ValueId>(
            std::min<uint64_t>(2, lo + rng.Uniform(2)));
        query.ranges.push_back({a, lo, hi});
      }
      if (rng.Bernoulli(0.5)) query.item_attrs.push_back(a);
    }
    RuleSet expected = ReferenceLocalizedRules(*index, query);
    for (PlanKind kind : kAllPlans) {
      auto result = ExecutePlan(kind, *index, query, wide);
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result->rules.SameAs(expected))
          << PlanKindName(kind) << " on "
          << query.ToString(data->schema());
    }
    query.ranges.clear();
    query.item_attrs.clear();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Values(21, 22, 23, 24, 25));

// ---------------------------------------------------------------------
// Concurrency: query execution is const over the engine; parallel callers
// must get identical results with no data races.

TEST(ConcurrencyTest, ParallelQueriesMatchSerialExecution) {
  auto data = std::make_unique<Dataset>(RandomDataset(99, 300, 5, 3));
  EngineOptions options;
  options.index.primary_support = 0.2;
  options.calibrate = false;
  auto engine = Engine::Build(*data, options);
  ASSERT_TRUE(engine.ok());

  std::vector<LocalizedQuery> queries;
  for (ValueId v = 0; v < 3; ++v) {
    LocalizedQuery query;
    query.ranges = {{0, v, v}};
    query.minsupp = 0.35;
    query.minconf = 0.6;
    queries.push_back(query);
  }
  std::vector<RuleSet> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = (*engine)->Execute(queries[i]).value().rules;
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        size_t pick = (static_cast<size_t>(t) + round) % queries.size();
        auto result = (*engine)->Execute(queries[pick]);
        if (!result.ok() || !result->rules.SameAs(serial[pick])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// ---------------------------------------------------------------------
// Parser robustness: random token soup must produce errors, never crashes
// or accepted garbage.

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  Dataset data = MakeSalaryDataset();
  Rng rng(4242);
  const char* fragments[] = {
      "REPORT",   "LOCALIZED", "ASSOCIATION", "RULES", "WHERE",  "RANGE",
      "HAVING",   "AND",       "ITEM",        "ATTRIBUTES",      "minsupport",
      "minconfidence", "=",    "{",           "}",     ",",      ";",
      "Location", "Seattle",   "Gender",      "F",     "0.5",    "75%",
      "\"",       "bogus",     "123abc",      "(",     "<",
  };
  int accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    int len = 1 + static_cast<int>(rng.Uniform(24));
    for (int i = 0; i < len; ++i) {
      text += fragments[rng.Uniform(std::size(fragments))];
      text += ' ';
    }
    auto query = ParseQuery(data.schema(), text);
    if (query.ok()) {
      ++accepted;
      EXPECT_TRUE(query->Validate(data.schema()).ok());
    }
  }
  // Random soup essentially never forms a full valid statement.
  EXPECT_LT(accepted, 5);
}

TEST(ParserFuzzTest, DeepNestingAndLongInputsAreBounded) {
  Dataset data = MakeSalaryDataset();
  std::string text = "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE ";
  for (int i = 0; i < 2000; ++i) text += "{";
  auto query = ParseQuery(data.schema(), text);
  EXPECT_FALSE(query.ok());

  std::string long_word(100000, 'x');
  auto query2 = ParseQuery(data.schema(), long_word);
  EXPECT_FALSE(query2.ok());
}

}  // namespace
}  // namespace colarm
