#include <gtest/gtest.h>

#include "data/salary_dataset.h"
#include "testing/brute_force.h"
#include "mip/mip_index.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

MipIndexOptions Options(double primary) {
  MipIndexOptions options;
  options.primary_support = primary;
  return options;
}

TEST(MipIndexTest, MipsAreExactlyTheClosedFrequentItemsets) {
  Dataset data = RandomDataset(1, 80, 5, 3);
  auto index = MipIndex::Build(data, Options(0.2));
  ASSERT_TRUE(index.ok());
  auto expected = MineClosedBruteForce(data, index->primary_count());
  ASSERT_EQ(index->num_mips(), expected.size());
  // Index is itemset-sorted; brute force output too.
  for (uint32_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(index->mip(i).items, expected[i].items);
    EXPECT_EQ(index->mip(i).global_count, expected[i].tids.size());
  }
}

TEST(MipIndexTest, BoundingBoxesAreTight) {
  Dataset data = RandomDataset(2, 60, 4, 4);
  auto index = MipIndex::Build(data, Options(0.25));
  ASSERT_TRUE(index.ok());
  const Schema& schema = data.schema();
  for (uint32_t id = 0; id < index->num_mips(); ++id) {
    const Mip& mip = index->mip(id);
    // Recompute the exact per-attribute min/max over supporting records.
    Rect expected = Rect::MakeEmpty(schema.num_attributes());
    for (Tid t = 0; t < data.num_records(); ++t) {
      if (!data.ContainsAll(t, mip.items)) continue;
      std::vector<ValueId> point(schema.num_attributes());
      for (AttrId a = 0; a < schema.num_attributes(); ++a) {
        point[a] = data.Value(t, a);
      }
      expected.ExpandToIncludePoint(point);
    }
    EXPECT_EQ(mip.bbox, expected) << "MIP " << id;
  }
}

TEST(MipIndexTest, TightBoundingBoxHelper) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  // Records supporting (Age=20-30, Salary=90K-120K) are 1..5 (0-based).
  Itemset items = {schema.ItemOf(4, 0), schema.ItemOf(5, 2)};
  Tidset tids = {1, 2, 3, 4, 5};
  Rect box = TightBoundingBox(data, items, tids);
  EXPECT_EQ(box.lo(4), 0);
  EXPECT_EQ(box.hi(4), 0);  // Age fixed at 20-30
  EXPECT_EQ(box.lo(5), 2);
  EXPECT_EQ(box.hi(5), 2);  // Salary fixed
  EXPECT_EQ(box.lo(0), 0);
  EXPECT_EQ(box.hi(0), 1);  // companies IBM..Google
  EXPECT_EQ(box.lo(2), 0);
  EXPECT_EQ(box.hi(2), 1);  // locations Boston..SFO
}

TEST(MipIndexTest, GlobalCountViaClosedSupersets) {
  Dataset data = RandomDataset(3, 70, 5, 3);
  auto index = MipIndex::Build(data, Options(0.15));
  ASSERT_TRUE(index.ok());
  auto frequent = MineFrequentBruteForce(data, index->primary_count());
  for (const FrequentItemset& f : frequent) {
    EXPECT_EQ(index->GlobalCount(f.items), f.count)
        << ItemsetToString(data.schema(), f.items);
  }
}

TEST(MipIndexTest, GlobalCountZeroBelowPrimary) {
  Dataset data = RandomDataset(4, 50, 4, 3);
  auto index = MipIndex::Build(data, Options(0.9));
  ASSERT_TRUE(index.ok());
  // An itemset combining two different non-dominant values is far below a
  // 90% primary threshold.
  const Schema& schema = data.schema();
  Itemset rare = {schema.ItemOf(0, 1), schema.ItemOf(1, 2)};
  EXPECT_EQ(index->GlobalCount(rare), 0u);
}

TEST(MipIndexTest, RTreeHoldsOneEntryPerMip) {
  Dataset data = RandomDataset(5, 60, 5, 3);
  auto index = MipIndex::Build(data, Options(0.2));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->rtree().size(), index->num_mips());
  EXPECT_TRUE(index->rtree().CheckInvariants());
  EXPECT_EQ(index->ittree().size(), index->num_mips());
}

TEST(MipIndexTest, StatsAreConsistent) {
  Dataset data = RandomDataset(6, 90, 5, 3);
  auto index = MipIndex::Build(data, Options(0.2));
  ASSERT_TRUE(index.ok());
  const IndexStats& stats = index->stats();
  EXPECT_EQ(stats.num_mips, index->num_mips());
  EXPECT_EQ(stats.num_records, data.num_records());
  EXPECT_EQ(stats.rtree_height, index->rtree().height());
  EXPECT_EQ(stats.sorted_counts.size(), index->num_mips());
  EXPECT_TRUE(std::is_sorted(stats.sorted_counts.begin(),
                             stats.sorted_counts.end()));
  // Length histogram sums to the MIP count.
  uint64_t total = 0;
  for (uint32_t c : stats.length_histogram) total += c;
  EXPECT_EQ(total, index->num_mips());
  EXPECT_GT(stats.avg_itemset_length, 0.0);
  // Every MIP satisfies the primary threshold.
  EXPECT_GE(stats.sorted_counts.front(), index->primary_count());

  EXPECT_DOUBLE_EQ(stats.FractionWithCountAtLeast(0), 1.0);
  EXPECT_DOUBLE_EQ(
      stats.FractionWithCountAtLeast(stats.sorted_counts.back() + 1), 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(MipIndexTest, PackedAndStrVariantsIndexSameMips) {
  Dataset data = RandomDataset(7, 70, 4, 3);
  MipIndexOptions str = Options(0.2);
  MipIndexOptions packed = Options(0.2);
  packed.use_str_packing = false;
  auto a = MipIndex::Build(data, str);
  auto b = MipIndex::Build(data, packed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_mips(), b->num_mips());
  EXPECT_TRUE(b->rtree().CheckInvariants());
}

TEST(MipIndexTest, RejectsBadInputs) {
  Dataset data = RandomDataset(8, 20, 3, 2);
  EXPECT_FALSE(MipIndex::Build(data, Options(0.0)).ok());
  EXPECT_FALSE(MipIndex::Build(data, Options(1.5)).ok());
  Dataset empty{Schema(std::vector<Attribute>{{"a", {"x"}}})};
  EXPECT_FALSE(MipIndex::Build(empty, Options(0.5)).ok());
}

TEST(MipIndexTest, SalaryIndexAtPaperThreshold) {
  Dataset data = MakeSalaryDataset();
  // Primary support 27% (3/11): low enough to capture RG and RL itemsets.
  auto index = MipIndex::Build(data, Options(0.27));
  ASSERT_TRUE(index.ok());
  const Schema& schema = data.schema();
  Itemset rg = {schema.ItemOf(4, 0), schema.ItemOf(5, 2)};
  EXPECT_EQ(index->GlobalCount(rg), 5u);
  EXPECT_GT(index->num_mips(), 0u);
}

}  // namespace
}  // namespace colarm
