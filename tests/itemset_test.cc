#include <gtest/gtest.h>

#include "data/salary_dataset.h"
#include "mining/itemset.h"

namespace colarm {
namespace {

TEST(ItemsetTest, Validity) {
  EXPECT_TRUE(ItemsetIsValid(Itemset{}));
  EXPECT_TRUE(ItemsetIsValid(Itemset{1, 3, 9}));
  EXPECT_FALSE(ItemsetIsValid(Itemset{3, 1}));
  EXPECT_FALSE(ItemsetIsValid(Itemset{2, 2}));
}

TEST(ItemsetTest, Union) {
  EXPECT_EQ(ItemsetUnion(Itemset{1, 3}, Itemset{2, 3, 5}),
            (Itemset{1, 2, 3, 5}));
  EXPECT_EQ(ItemsetUnion(Itemset{}, Itemset{4}), (Itemset{4}));
  EXPECT_EQ(ItemsetUnion(Itemset{}, Itemset{}), Itemset{});
}

TEST(ItemsetTest, Subset) {
  EXPECT_TRUE(ItemsetIsSubset(Itemset{}, Itemset{1, 2}));
  EXPECT_TRUE(ItemsetIsSubset(Itemset{2}, Itemset{1, 2, 3}));
  EXPECT_TRUE(ItemsetIsSubset(Itemset{1, 3}, Itemset{1, 2, 3}));
  EXPECT_FALSE(ItemsetIsSubset(Itemset{4}, Itemset{1, 2, 3}));
  EXPECT_FALSE(ItemsetIsSubset(Itemset{1, 2, 3}, Itemset{1, 2}));
}

TEST(ItemsetTest, Disjoint) {
  EXPECT_TRUE(ItemsetDisjoint(Itemset{1, 3}, Itemset{2, 4}));
  EXPECT_FALSE(ItemsetDisjoint(Itemset{1, 3}, Itemset{3}));
  EXPECT_TRUE(ItemsetDisjoint(Itemset{}, Itemset{1}));
}

TEST(ItemsetTest, ToString) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  Itemset items = {schema.ItemOf(4, 0), schema.ItemOf(5, 2)};
  EXPECT_EQ(ItemsetToString(schema, items), "{Age=20-30, Salary=90K-120K}");
  EXPECT_EQ(ItemsetToString(schema, Itemset{}), "{}");
}

TEST(MinCountTest, ExactBoundaries) {
  // c / total >= fraction with the smallest such c.
  EXPECT_EQ(MinCount(0.5, 10), 5u);
  EXPECT_EQ(MinCount(0.51, 10), 6u);
  EXPECT_EQ(MinCount(0.05, 11), 1u);
  EXPECT_EQ(MinCount(1.0, 7), 7u);
  EXPECT_EQ(MinCount(0.0, 10), 1u);
  EXPECT_EQ(MinCount(0.3, 0), 1u);
}

TEST(MinCountTest, FloatingPointRobustness) {
  // 0.8 * 35 = 28.000000000000004 in binary; must not round up to 29.
  EXPECT_EQ(MinCount(0.8, 35), 28u);
  EXPECT_EQ(MinCount(0.7, 10), 7u);
}

}  // namespace
}  // namespace colarm
