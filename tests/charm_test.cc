#include <gtest/gtest.h>

#include <map>

#include "data/salary_dataset.h"
#include "data/synthetic.h"
#include "mining/charm.h"
#include "test_util.h"
#include "testing/brute_force.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

void ExpectSameClosedSets(std::vector<ClosedItemset> actual,
                          std::vector<ClosedItemset> expected) {
  SortClosedItemsets(&actual);
  SortClosedItemsets(&expected);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].items, expected[i].items);
    EXPECT_EQ(actual[i].tids, expected[i].tids);
  }
}

using CharmParam = std::tuple<uint64_t, uint32_t, uint32_t, uint32_t, uint32_t>;

class CharmEquivalenceTest : public ::testing::TestWithParam<CharmParam> {};

TEST_P(CharmEquivalenceTest, MatchesBruteForceClosedSets) {
  auto [seed, records, attrs, domain, min_count] = GetParam();
  Dataset data = RandomDataset(seed, records, attrs, domain);
  ExpectSameClosedSets(MineCharm(data, min_count),
                       MineClosedBruteForce(data, min_count));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CharmEquivalenceTest,
    ::testing::Values(CharmParam{1, 40, 4, 3, 4}, CharmParam{2, 40, 4, 3, 12},
                      CharmParam{3, 60, 5, 2, 6}, CharmParam{4, 60, 5, 2, 30},
                      CharmParam{5, 30, 6, 3, 3}, CharmParam{6, 80, 3, 4, 8},
                      CharmParam{7, 100, 4, 2, 55},
                      CharmParam{8, 50, 5, 3, 20},
                      CharmParam{9, 25, 7, 2, 4},
                      CharmParam{10, 70, 4, 4, 10},
                      CharmParam{11, 120, 5, 3, 15},
                      CharmParam{12, 90, 6, 2, 45}));

TEST(CharmTest, EveryOutputIsClosedAndFrequent) {
  Dataset data = RandomDataset(77, 120, 6, 3);
  const uint32_t min_count = 12;
  auto closed = MineCharm(data, min_count);
  for (const ClosedItemset& c : closed) {
    EXPECT_GE(c.count(), min_count);
    EXPECT_EQ(CountSupport(data, c.items), c.count());
    // No single-item extension may preserve the support (closedness).
    for (ItemId item = 0; item < data.schema().num_items(); ++item) {
      if (std::binary_search(c.items.begin(), c.items.end(), item)) continue;
      Itemset extended = ItemsetUnion(c.items, Itemset{item});
      EXPECT_LT(CountSupport(data, extended), c.count())
          << "itemset not closed under item " << item;
    }
  }
}

TEST(CharmTest, TidsetsAreExact) {
  Dataset data = RandomDataset(42, 60, 5, 3);
  auto closed = MineCharm(data, 10);
  ASSERT_FALSE(closed.empty());
  for (const ClosedItemset& c : closed) {
    Tidset expected;
    for (Tid t = 0; t < data.num_records(); ++t) {
      if (data.ContainsAll(t, c.items)) expected.push_back(t);
    }
    EXPECT_EQ(c.tids, expected);
  }
}

TEST(CharmTest, NoDuplicateItemsets) {
  Dataset data = RandomDataset(31, 90, 5, 3);
  auto closed = MineCharm(data, 9);
  SortClosedItemsets(&closed);
  for (size_t i = 1; i < closed.size(); ++i) {
    EXPECT_NE(closed[i - 1].items, closed[i].items);
  }
}

TEST(CharmTest, SinkStreamingMatchesMaterialized) {
  Dataset data = RandomDataset(55, 70, 4, 3);
  VerticalView vertical(data);
  std::vector<ClosedItemset> streamed;
  MineCharm(vertical, 7, [&](const Itemset& items, const Tidset& tids) {
    streamed.push_back({items, tids});
  });
  ExpectSameClosedSets(std::move(streamed), MineCharm(vertical, 7));
}

TEST(CharmTest, ClosedSetsCompressFrequentSets) {
  Dataset data = RandomDataset(66, 100, 5, 2);
  const uint32_t min_count = 20;
  auto closed = MineCharm(data, min_count);
  auto frequent = MineFrequentBruteForce(data, min_count);
  EXPECT_LE(closed.size(), frequent.size());
  // Every frequent itemset's support must be recoverable as the max
  // support among closed supersets.
  for (const FrequentItemset& f : frequent) {
    uint32_t best = 0;
    for (const ClosedItemset& c : closed) {
      if (ItemsetIsSubset(f.items, c.items)) {
        best = std::max(best, c.count());
      }
    }
    EXPECT_EQ(best, f.count) << "closure property violated";
  }
}

// Every subset of a frequent itemset is frequent with at least its support,
// on the reference the closed-set tests compare against.
TEST(CharmTest, ReferenceSupportsAreDownwardClosed) {
  Dataset data = RandomDataset(21, 60, 5, 3);
  auto frequent = MineFrequentBruteForce(data, 6);
  std::map<Itemset, uint32_t> by_items;
  for (const auto& f : frequent) by_items[f.items] = f.count;
  for (const auto& f : frequent) {
    if (f.items.size() < 2) continue;
    for (size_t drop = 0; drop < f.items.size(); ++drop) {
      Itemset sub;
      for (size_t i = 0; i < f.items.size(); ++i) {
        if (i != drop) sub.push_back(f.items[i]);
      }
      auto it = by_items.find(sub);
      ASSERT_NE(it, by_items.end())
          << "subset of a frequent itemset missing from output";
      EXPECT_GE(it->second, f.count);
    }
  }
}

TEST(CharmTest, ThresholdAboveDatasetYieldsNothing) {
  Dataset data = RandomDataset(13, 20, 3, 3);
  EXPECT_TRUE(MineCharm(data, 21).empty());
  EXPECT_TRUE(MineClosedBruteForce(data, 21).empty());
  EXPECT_TRUE(MineFrequentBruteForce(data, 21).empty());
}

TEST(CharmTest, SalaryClosedSetAroundRG) {
  Dataset data = MakeSalaryDataset();
  auto closed = MineCharm(data, 5);
  const Schema& schema = data.schema();
  // (Age=20-30, Salary=90K-120K) supports records 2..6 — closed at count 5.
  Itemset rg = {schema.ItemOf(4, 0), schema.ItemOf(5, 2)};
  bool found = false;
  for (const ClosedItemset& c : closed) {
    if (c.items == rg) {
      found = true;
      EXPECT_EQ(c.count(), 5u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CharmTest, MushroomLikePresetRuns) {
  auto data = GenerateSynthetic(MushroomLikeConfig(0.02));
  ASSERT_TRUE(data.ok());
  auto closed = MineCharm(*data, MinCount(0.3, data->num_records()));
  EXPECT_FALSE(closed.empty());
}

}  // namespace
}  // namespace colarm
