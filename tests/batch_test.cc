#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

struct Env {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Engine> engine;

  /// An engine over a seeded random relation.
  static Env Make(uint64_t seed, unsigned threads = 0) {
    Env env;
    env.data = std::make_unique<Dataset>(RandomDataset(seed, 250, 5, 4));
    EngineOptions options;
    options.index.primary_support = 0.2;
    options.calibrate = false;
    options.num_threads = threads;
    env.engine = std::move(Engine::Build(*env.data, options).value());
    return env;
  }
};

std::vector<LocalizedQuery> SessionQueries() {
  // An exploration session: same region at three thresholds, a second
  // region, one exact duplicate, one drill-down with an item vocabulary.
  LocalizedQuery base;
  base.ranges = {{0, 0, 1}};
  base.minconf = 0.6;

  std::vector<LocalizedQuery> queries;
  for (double minsupp : {0.3, 0.4, 0.5}) {
    LocalizedQuery q = base;
    q.minsupp = minsupp;
    queries.push_back(q);
  }
  LocalizedQuery other;
  other.ranges = {{1, 0, 0}};
  other.minsupp = 0.35;
  other.minconf = 0.55;
  queries.push_back(other);
  queries.push_back(queries[1]);  // exact duplicate of the 0.4 query
  LocalizedQuery drill = base;
  drill.minsupp = 0.4;
  drill.item_attrs = {1, 2, 3};
  queries.push_back(drill);
  return queries;
}

TEST(BatchTest, ResultsMatchStandaloneExecution) {
  Env env = Env::Make(1);
  auto queries = SessionQueries();
  BatchResult batch = env.engine->ExecuteBatch(queries);
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch.results[i].ok()) << "query " << i;
    auto standalone = env.engine->Execute(queries[i]);
    ASSERT_TRUE(standalone.ok());
    EXPECT_TRUE(batch.results[i]->rules.SameAs(standalone->rules))
        << "query " << i;
    EXPECT_EQ(batch.results[i]->plan_used, standalone->plan_used);
    EXPECT_EQ(batch.results[i]->stats.record_checks,
              standalone->stats.record_checks)
        << "query " << i;
  }
}

TEST(BatchTest, SharesSubsetsAcrossQueries) {
  Env env = Env::Make(2);
  auto queries = SessionQueries();
  BatchResult batch = env.engine->ExecuteBatch(queries);
  // Six queries over two distinct boxes (the duplicate is served from
  // its first copy): at least three materializations saved.
  EXPECT_GE(batch.subsets_shared, 3u);
  EXPECT_EQ(batch.duplicates_reused, 1u);
}

TEST(BatchTest, InvalidQueryFailsOnlyItsSlot) {
  Env env = Env::Make(6);
  auto queries = SessionQueries();
  LocalizedQuery bad;
  bad.ranges = {{99, 0, 0}};
  queries.insert(queries.begin() + 2, bad);
  BatchResult batch = env.engine->ExecuteBatch(queries);
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(batch.results[i].status().code(),
                env.engine->Execute(bad).status().code());
      continue;
    }
    ASSERT_TRUE(batch.results[i].ok()) << "query " << i;
    auto standalone = env.engine->Execute(queries[i]);
    ASSERT_TRUE(standalone.ok());
    EXPECT_TRUE(batch.results[i]->rules.SameAs(standalone->rules))
        << "query " << i;
  }
}

TEST(BatchTest, CancelledQueryFailsAlone) {
  Env env = Env::Make(12);
  Env reference = Env::Make(12);
  // Three queries on three distinct boxes, then a copy of the second and
  // of the first; the second query's token has already fired.
  std::vector<LocalizedQuery> queries(3);
  queries[0].ranges = {{0, 0, 1}};
  queries[1].ranges = {{1, 0, 0}};
  queries[2].ranges = {{2, 1, 2}};
  for (LocalizedQuery& q : queries) {
    q.minsupp = 0.35;
    q.minconf = 0.55;
  }
  queries.push_back(queries[1]);
  queries.push_back(queries[0]);
  CancelToken fired;
  fired.Cancel();
  CancelToken open;
  const std::vector<const CancelToken*> cancels = {nullptr, &fired, &open,
                                                   nullptr, nullptr};

  BatchResult batch = env.engine->ExecuteBatch(queries, cancels);
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.results[1].status().code(), StatusCode::kDeadlineExceeded);
  // The copy of the cancelled query runs under its own (null) token; the
  // copy of the first query shares its token, so it shares its outcome.
  EXPECT_EQ(batch.duplicates_reused, 1u);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}, size_t{4}}) {
    ASSERT_TRUE(batch.results[i].ok()) << "query " << i;
    auto standalone = reference.engine->Execute(queries[i]);
    ASSERT_TRUE(standalone.ok());
    EXPECT_TRUE(batch.results[i]->rules.SameAs(standalone->rules));
    EXPECT_EQ(batch.results[i]->plan_used, standalone->plan_used);
    EXPECT_EQ(batch.results[i]->stats.record_checks,
              standalone->stats.record_checks);
  }
}

TEST(BatchTest, MismatchedCancelTokensFailEverySlot) {
  Env env = Env::Make(13);
  auto queries = SessionQueries();
  const std::vector<const CancelToken*> cancels = {nullptr, nullptr};
  BatchResult batch = env.engine->ExecuteBatch(queries, cancels);
  ASSERT_EQ(batch.results.size(), queries.size());
  for (const Result<QueryResult>& result : batch.results) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BatchTest, ConcurrencySweepIsDeterministic) {
  // The same two-batch session over fresh engines at 1, 2, and 8 threads
  // must produce identical results.
  auto queries = SessionQueries();
  std::vector<BatchResult> firsts;
  std::vector<BatchResult> seconds;
  for (unsigned threads : {1u, 2u, 8u}) {
    Env env = Env::Make(10, threads);
    firsts.push_back(env.engine->ExecuteBatch(queries));
    seconds.push_back(env.engine->ExecuteBatch(queries));
  }
  auto expect_same = [&](const BatchResult& a, const BatchResult& b,
                         const std::string& context) {
    ASSERT_EQ(a.results.size(), b.results.size()) << context;
    for (size_t i = 0; i < a.results.size(); ++i) {
      ASSERT_TRUE(a.results[i].ok() && b.results[i].ok()) << context;
      EXPECT_TRUE(a.results[i]->rules.SameAs(b.results[i]->rules)) << context;
      EXPECT_EQ(a.results[i]->plan_used, b.results[i]->plan_used) << context;
      EXPECT_EQ(a.results[i]->stats.record_checks,
                b.results[i]->stats.record_checks)
          << context;
    }
    EXPECT_EQ(a.duplicates_reused, b.duplicates_reused) << context;
    EXPECT_EQ(a.subsets_shared, b.subsets_shared) << context;
  };
  for (size_t t = 1; t < firsts.size(); ++t) {
    expect_same(firsts[0], firsts[t], "first batch, sweep " +
                                          std::to_string(t));
    expect_same(seconds[0], seconds[t], "second batch, sweep " +
                                            std::to_string(t));
  }
}

TEST(BatchTest, EmptyBatch) {
  Env env = Env::Make(7);
  BatchResult batch = env.engine->ExecuteBatch({});
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.duplicates_reused, 0u);
}

}  // namespace
}  // namespace colarm
