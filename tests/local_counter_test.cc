#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "mining/local_counter.h"
#include "plans/focal_subset.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

uint32_t NaiveCount(const Dataset& data, std::span<const Tid> tids,
                    std::span<const ItemId> items) {
  uint32_t count = 0;
  for (Tid t : tids) {
    if (data.ContainsAll(t, items)) ++count;
  }
  return count;
}

TEST(LocalSubsetCounterTest, FullCountMatchesNaive) {
  Dataset data = RandomDataset(3, 80, 5, 3);
  const Schema& schema = data.schema();
  std::vector<Tid> tids;
  for (Tid t = 0; t < data.num_records(); t += 2) tids.push_back(t);
  Itemset itemset = {schema.ItemOf(0, 0), schema.ItemOf(2, 0),
                     schema.ItemOf(4, 0)};
  LocalSubsetCounter counter(data, itemset, tids);
  EXPECT_EQ(counter.CountFull(), NaiveCount(data, tids, itemset));
  EXPECT_EQ(counter.base_size(), tids.size());
}

TEST(LocalSubsetCounterTest, EverySubsetMatchesNaive) {
  Dataset data = RandomDataset(4, 60, 6, 3);
  const Schema& schema = data.schema();
  std::vector<Tid> tids;
  for (Tid t = 10; t < 50; ++t) tids.push_back(t);
  Itemset itemset = {schema.ItemOf(1, 0), schema.ItemOf(3, 0),
                     schema.ItemOf(4, 1), schema.ItemOf(5, 0)};
  LocalSubsetCounter counter(data, itemset, tids);
  const uint32_t full = (1u << itemset.size()) - 1;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    Itemset subset;
    for (size_t i = 0; i < itemset.size(); ++i) {
      if (mask & (1u << i)) subset.push_back(itemset[i]);
    }
    EXPECT_EQ(counter.CountOf(subset), NaiveCount(data, tids, subset))
        << "mask " << mask;
  }
}

TEST(LocalSubsetCounterTest, EmptySubsetCountsEverything) {
  Dataset data = RandomDataset(5, 30, 4, 2);
  std::vector<Tid> tids = {0, 5, 7, 9};
  Itemset itemset = {data.schema().ItemOf(0, 0)};
  LocalSubsetCounter counter(data, itemset, tids);
  EXPECT_EQ(counter.CountOf(Itemset{}), tids.size());
}

TEST(LocalSubsetCounterTest, UnknownItemCountsZero) {
  Dataset data = RandomDataset(6, 30, 4, 2);
  const Schema& schema = data.schema();
  std::vector<Tid> tids = {0, 1, 2};
  LocalSubsetCounter counter(data, {schema.ItemOf(0, 0)}, tids);
  EXPECT_EQ(counter.CountOf(Itemset{schema.ItemOf(1, 0)}), 0u);
}

TEST(LocalSubsetCounterTest, EmptyTidList) {
  Dataset data = RandomDataset(7, 20, 4, 2);
  LocalSubsetCounter counter(data, {data.schema().ItemOf(0, 0)}, {});
  EXPECT_EQ(counter.CountFull(), 0u);
  EXPECT_EQ(counter.base_size(), 0u);
}

TEST(LocalSubsetCounterTest, LongItemsetFallbackPath) {
  // 22 attributes so the itemset exceeds kMaxMaskItems and exercises the
  // direct-scan fallback.
  Dataset data = RandomDataset(8, 50, 22, 2);
  const Schema& schema = data.schema();
  Itemset itemset;
  for (AttrId a = 0; a < 22; ++a) itemset.push_back(schema.ItemOf(a, 0));
  std::vector<Tid> tids;
  for (Tid t = 0; t < data.num_records(); ++t) tids.push_back(t);
  LocalSubsetCounter counter(data, itemset, tids);
  EXPECT_EQ(counter.CountFull(), NaiveCount(data, tids, itemset));
  Itemset sub = {itemset[0], itemset[10], itemset[21]};
  EXPECT_EQ(counter.CountOf(sub), NaiveCount(data, tids, sub));
}

TEST(LocalSubsetCounterTest, RecordChecksAccumulate) {
  Dataset data = RandomDataset(9, 40, 4, 2);
  std::vector<Tid> tids = {0, 1, 2, 3, 4};
  LocalSubsetCounter counter(data, {data.schema().ItemOf(0, 0)}, tids);
  EXPECT_EQ(counter.record_checks(), tids.size());
}

// Every route of the counter agrees on every count and on the effort
// counter: the row probe (no DQ bitmap), and, over a dense DQ's bitmap,
// the lattice DFS or the row probe — the DFS-vs-probe switch flips with
// |DQ| and itemset length across this sweep — for every subset of every
// itemset.
TEST(LocalSubsetCounterTest, DenseRoutesMatchRowRoutes) {
  Dataset data = RandomDataset(51, 500, 6, 4);
  const Schema& schema = data.schema();
  const VerticalIndex vertical = VerticalIndex::Build(data, nullptr);

  Rng rng(61);
  for (uint32_t extent : {0u, 1u, 3u}) {
    Rect box = Rect::FullDomain(schema);
    if (extent > 0) box.SetInterval(0, 0, extent - 1);
    FocalSubset subset = FocalSubset::Materialize(data, box);
    ASSERT_TRUE(IsDense(subset.size(), data.num_records()));
    const Bitmap dq = Bitmap::FromTids(subset.tids, data.num_records());

    for (size_t len : {0ul, 1ul, 2ul, 4ul, 8ul, 12ul}) {
      Itemset items;
      while (items.size() < len) {
        ItemId item = static_cast<ItemId>(rng.Uniform(schema.num_items()));
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      std::sort(items.begin(), items.end());

      LocalSubsetCounter rows(data, items, subset.tids);
      LocalSubsetCounter dense(data, items, subset.tids, &vertical, &dq);
      EXPECT_EQ(dense.CountFull(), rows.CountFull());
      EXPECT_EQ(dense.CountFull(), NaiveCount(data, subset.tids, items));
      EXPECT_EQ(dense.base_size(), rows.base_size());
      EXPECT_EQ(dense.record_checks(), rows.record_checks());

      for (uint32_t mask = 0; mask < (1u << len); ++mask) {
        Itemset sub;
        for (size_t i = 0; i < len; ++i) {
          if (mask & (1u << i)) sub.push_back(items[i]);
        }
        EXPECT_EQ(dense.CountOf(sub), rows.CountOf(sub))
            << "len " << len << " mask " << mask;
      }
      EXPECT_EQ(dense.record_checks(), rows.record_checks());
    }
  }
}

// Past kMaxMaskItems both routes count per query: an AND-chain against the
// DQ bitmap, or a scan of the tid list. Counts and the per-query pass
// charged to `record_checks` agree.
TEST(LocalSubsetCounterTest, LongItemsetBothRoutes) {
  Dataset data = RandomDataset(71, 120, 22, 2);
  const Schema& schema = data.schema();
  const VerticalIndex vertical = VerticalIndex::Build(data, nullptr);
  Rect box = Rect::FullDomain(schema);
  box.SetInterval(0, 0, 0);
  FocalSubset subset = FocalSubset::Materialize(data, box);
  ASSERT_TRUE(IsDense(subset.size(), data.num_records()));
  const Bitmap dq = Bitmap::FromTids(subset.tids, data.num_records());

  Itemset items;
  for (AttrId a = 0; a < 22; ++a) items.push_back(schema.ItemOf(a, 0));
  ASSERT_GT(items.size(), LocalSubsetCounter::kMaxMaskItems);

  LocalSubsetCounter rows(data, items, subset.tids);
  LocalSubsetCounter dense(data, items, subset.tids, &vertical, &dq);
  EXPECT_EQ(dense.CountFull(), rows.CountFull());
  EXPECT_EQ(dense.CountFull(), NaiveCount(data, subset.tids, items));
  EXPECT_EQ(dense.record_checks(), rows.record_checks());
  Rng rng(81);
  for (int trial = 0; trial < 10; ++trial) {
    Itemset sub;
    for (ItemId item : items) {
      if (rng.Bernoulli(0.3)) sub.push_back(item);
    }
    const uint32_t expected = NaiveCount(data, subset.tids, sub);
    EXPECT_EQ(rows.CountOf(sub), expected);
    EXPECT_EQ(dense.CountOf(sub), expected);
    EXPECT_EQ(dense.record_checks(), rows.record_checks());
  }
}

}  // namespace
}  // namespace colarm
