// Record-level route coverage. The plans pick their route from one density
// predicate (IsDense: |DQ| x 64 >= |D|): dense DQs count on bitmaps
// (ELIMINATE popcounts, the VERIFY lattice DFS), sparse ones by row probes.
// There is no switch to force either route, so these tests place focal
// boxes on both sides of the bar — one record below it, on it, one above
// it, and far to either side — and check every plan against the brute-
// force oracle at 1, 2 and 8 threads, with byte-identical effort counters
// across thread counts, at every local count boundary beside the bar,
// under constraint pushdown, and on a reloaded index.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mip/serialize.h"
#include "plans/plans.h"
#include "testing/oracle.h"

namespace colarm {
namespace {

constexpr uint32_t kRecords = 1280;  // the bar: 1280 / 64 = 20 records
constexpr uint32_t kBar = kRecords / Bitmap::kBitsPerWord;
constexpr double kPrimarySupport = 0.15;

// Attribute 0 is the region the focal boxes select on: its prefix counts
// put [0, 0] far below the bar (3 records), [0, 1] one below it (19),
// [0, 2] on it (20), [0, 3] one above it (21), and [0, 4] far above it.
// Attributes 1-4 are skewed toward value 0 so itemsets clear both the
// global primary threshold and local thresholds inside small boxes.
Dataset RouteDataset() {
  std::vector<Attribute> attrs;
  attrs.push_back({"region", {"r0", "r1", "r2", "r3", "r4", "r5"}});
  for (int a = 1; a <= 4; ++a) {
    attrs.push_back({"a" + std::to_string(a), {"v0", "v1", "v2"}});
  }
  Dataset dataset{Schema(std::move(attrs))};
  const uint32_t region_counts[] = {3, 16, 1, 1, 379};
  Rng rng(2024);
  std::vector<ValueId> record(5);
  for (Tid t = 0; t < kRecords; ++t) {
    uint32_t region = 5;
    for (uint32_t v = 0, seen = 0; v < 5; ++v) {
      seen += region_counts[v];
      if (t < seen) {
        region = v;
        break;
      }
    }
    record[0] = static_cast<ValueId>(region);
    for (uint32_t a = 1; a <= 4; ++a) {
      record[a] = rng.Bernoulli(0.7) ? 0
                                     : static_cast<ValueId>(rng.Uniform(3));
    }
    if (!dataset.AddRecord(record).ok()) std::abort();
  }
  return dataset;
}

LocalizedQuery Query(ValueId hi, double minsupp = 0.3, double minconf = 0.6) {
  LocalizedQuery query;
  query.ranges = {{0, 0, hi}};
  query.minsupp = minsupp;
  query.minconf = minconf;
  return query;
}

RuleGenOptions WideRuleGen() {
  RuleGenOptions options;
  options.max_itemset_length = 31;
  return options;
}

// Deterministic effort counters of a plan run; timings excluded.
std::vector<uint64_t> Effort(const PlanStats& stats) {
  return {stats.subset_size,          stats.local_min_count,
          stats.candidates_search,    stats.candidates_contained,
          stats.candidates_qualified, stats.record_checks,
          stats.rtree_nodes_visited,  stats.rtree_pruned_by_support,
          stats.rules_considered,     stats.rules_emitted,
          stats.itemsets_skipped};
}

class RouteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(RouteDataset());
    auto index =
        MipIndex::Build(*dataset_, {.primary_support = kPrimarySupport});
    ASSERT_TRUE(index.ok());
    index_ = std::make_unique<MipIndex>(std::move(index.value()));
  }

  uint32_t SubsetSize(const LocalizedQuery& query) const {
    return OpSelect(*index_, query).size();
  }

  // Every plan at 1, 2 and 8 threads against the oracle; effort counters
  // must not move with the thread count. Returns the number of rules so
  // callers can assert the box was not vacuous.
  size_t ExpectPlansMatchOracle(const MipIndex& index,
                                const LocalizedQuery& query,
                                const std::string& label) {
    auto oracle = fuzzing::OracleLocalizedRules(*dataset_, kPrimarySupport,
                                                query);
    EXPECT_TRUE(oracle.ok()) << label;
    if (!oracle.ok()) return 0;
    ThreadPool pool2(2);
    ThreadPool pool8(8);
    for (PlanKind kind : kAllPlans) {
      std::vector<uint64_t> sequential_effort;
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                               &pool8}) {
        PlanExecOptions exec;
        exec.rulegen = WideRuleGen();
        exec.pool = pool;
        auto run = ExecutePlan(kind, index, query, exec);
        const unsigned threads = pool ? pool->parallelism() : 1;
        EXPECT_TRUE(run.ok()) << label << " " << PlanKindName(kind);
        if (!run.ok()) continue;
        EXPECT_TRUE(run->rules.SameAs(*oracle))
            << label << " " << PlanKindName(kind) << " x" << threads << ": "
            << run->rules.rules.size() << " rules vs "
            << oracle->rules.size();
        if (pool == nullptr) {
          sequential_effort = Effort(run->stats);
        } else {
          EXPECT_EQ(Effort(run->stats), sequential_effort)
              << label << " " << PlanKindName(kind) << " x" << threads;
        }
      }
    }
    return oracle->rules.size();
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<MipIndex> index_;
};

// The fixture's boxes sit where their names say, and PlanContext builds the
// DQ bitmap exactly on the dense side — and never for ARM.
TEST_F(RouteTest, BarSelectsTheRoute) {
  EXPECT_EQ(SubsetSize(Query(0)), 3u);
  EXPECT_EQ(SubsetSize(Query(1)), kBar - 1);
  EXPECT_EQ(SubsetSize(Query(2)), kBar);
  EXPECT_EQ(SubsetSize(Query(3)), kBar + 1);
  EXPECT_EQ(SubsetSize(Query(4)), 400u);
  for (ValueId hi = 0; hi <= 4; ++hi) {
    const LocalizedQuery query = Query(hi);
    PlanContext ctx(*index_, query, WideRuleGen(), OpSelect(*index_, query));
    ctx.AdoptDqBitmap();
    EXPECT_EQ(ctx.dq() != nullptr, hi >= 2) << "box [0, " << hi << "]";
  }
}

TEST_F(RouteTest, EveryPlanMatchesOracleAroundTheBar) {
  size_t rules = 0;
  for (ValueId hi = 0; hi <= 5; ++hi) {
    rules += ExpectPlansMatchOracle(*index_, Query(hi),
                                    "box [0, " + std::to_string(hi) + "]");
  }
  // Unconstrained box: DQ is the whole relation.
  LocalizedQuery all = Query(0);
  all.ranges.clear();
  rules += ExpectPlansMatchOracle(*index_, all, "full domain");
  // Threshold extremes on the boundary boxes.
  rules += ExpectPlansMatchOracle(*index_, Query(1, 1.0, 1.0), "bar-1 1/1");
  rules += ExpectPlansMatchOracle(*index_, Query(2, 0.05, 0.1), "bar low");
  EXPECT_GT(rules, 0u);
}

// Local minsupport on every count boundary of the boxes beside the bar:
// minsupp = k / |DQ| makes each k the exact qualifying count, so a route
// that miscounts any candidate by one flips its qualification.
TEST_F(RouteTest, EveryCountBoundaryMatchesOracle) {
  for (ValueId hi : {ValueId{1}, ValueId{2}, ValueId{3}}) {
    const uint32_t size = SubsetSize(Query(hi));
    for (uint32_t k = 1; k <= size; ++k) {
      ExpectPlansMatchOracle(*index_,
                             Query(hi, static_cast<double>(k) / size, 0.1),
                             "box [0, " + std::to_string(hi) + "] count " +
                                 std::to_string(k));
    }
  }
}

// Constraint pushdown reaches into both routes: CONTAIN seeding, EXCLUDE
// projection, pinned antecedents and measure floors, each on a box just
// below and just on the bar.
TEST_F(RouteTest, ConstrainedQueriesMatchOracleOnBothRoutes) {
  const Schema& schema = dataset_->schema();
  for (ValueId hi : {ValueId{1}, ValueId{2}}) {
    const std::string side = hi == 1 ? "sparse " : "dense ";

    LocalizedQuery contain = Query(hi, 0.2, 0.4);
    contain.constraints.must_contain = {schema.ItemOf(1, 0)};

    LocalizedQuery exclude = Query(hi, 0.1, 0.3);
    exclude.constraints.must_exclude = {schema.ItemOf(2, 1),
                                        schema.ItemOf(4, 0)};

    LocalizedQuery pinned = Query(hi, 0.2, 0.4);
    pinned.constraints.antecedent_only = {1, 3};

    LocalizedQuery measures = Query(hi, 0.1, 0.3);
    measures.constraints.min_lift = 1.0;
    measures.constraints.min_kulczynski = 0.5;

    LocalizedQuery combined = Query(hi, 0.1, 0.3);
    combined.constraints.must_contain = {schema.ItemOf(3, 0)};
    combined.constraints.must_exclude = {schema.ItemOf(4, 2)};
    combined.constraints.antecedent_only = {1};
    combined.constraints.min_cosine = 0.4;

    LocalizedQuery contradictory = Query(hi, 0.2, 0.4);
    contradictory.constraints.must_contain = {schema.ItemOf(1, 0)};
    contradictory.constraints.must_exclude = {schema.ItemOf(1, 0)};

    ExpectPlansMatchOracle(*index_, contain, side + "contain");
    ExpectPlansMatchOracle(*index_, exclude, side + "exclude");
    ExpectPlansMatchOracle(*index_, pinned, side + "pinned");
    ExpectPlansMatchOracle(*index_, measures, side + "measures");
    ExpectPlansMatchOracle(*index_, combined, side + "combined");
    ExpectPlansMatchOracle(*index_, contradictory, side + "contradictory");
  }
}

// A reloaded index carries the deserialized item bitmaps the dense routes
// read: it answers like the oracle, with the built index's effort counters.
TEST_F(RouteTest, ReloadedIndexMatchesOracleOnBothRoutes) {
  const std::string path = ::testing::TempDir() + "/route_test.clrm";
  ASSERT_TRUE(SaveMipIndex(*index_, path).ok());
  auto loaded = LoadMipIndex(*dataset_, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (ValueId hi : {ValueId{0}, ValueId{1}, ValueId{2}, ValueId{3},
                     ValueId{4}}) {
    const LocalizedQuery query = Query(hi);
    ExpectPlansMatchOracle(*loaded, query,
                           "reloaded box [0, " + std::to_string(hi) + "]");
    for (PlanKind kind : kAllPlans) {
      PlanExecOptions exec;
      exec.rulegen = WideRuleGen();
      auto built = ExecutePlan(kind, *index_, query, exec);
      auto reloaded = ExecutePlan(kind, *loaded, query, exec);
      ASSERT_TRUE(built.ok());
      ASSERT_TRUE(reloaded.ok());
      EXPECT_EQ(Effort(reloaded->stats), Effort(built->stats))
          << PlanKindName(kind) << " box [0, " << hi << "]";
    }
  }
}

}  // namespace
}  // namespace colarm
