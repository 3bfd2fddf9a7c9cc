#include <gtest/gtest.h>

#include "data/salary_dataset.h"
#include "testing/brute_force.h"

namespace colarm {
namespace {

TEST(SalaryDatasetTest, ShapeMatchesTable1) {
  Dataset data = MakeSalaryDataset();
  EXPECT_EQ(data.num_records(), 11u);
  EXPECT_EQ(data.num_attributes(), 6u);
  EXPECT_EQ(data.schema().attribute(0).name, "Company");
  EXPECT_EQ(data.schema().attribute(5).name, "Salary");
}

// The paper's running example: global rule RG = (Age=20-30 => Salary=90K-
// 120K) has 45% support (5/11) and 83% confidence (5/6).
TEST(SalaryDatasetTest, GlobalRuleRG) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  ItemId age_a0 = schema.ItemOf(4, 0);     // Age=20-30
  ItemId salary_s2 = schema.ItemOf(5, 2);  // Salary=90K-120K
  uint32_t both = CountSupport(data, std::vector<ItemId>{age_a0, salary_s2});
  uint32_t age_only = CountSupport(data, std::vector<ItemId>{age_a0});
  EXPECT_EQ(both, 5u);
  EXPECT_EQ(age_only, 6u);
}

// Hand-counted Table 1 supports, as the reference miner reports them at a
// threshold of 5 records.
TEST(SalaryDatasetTest, FrequentItemsetsAtFive) {
  Dataset data = MakeSalaryDataset();
  auto frequent = MineFrequentBruteForce(data, 5);
  const Schema& schema = data.schema();
  auto find = [&](const Itemset& items) -> int {
    for (const auto& f : frequent) {
      if (f.items == items) return static_cast<int>(f.count);
    }
    return -1;
  };
  EXPECT_EQ(find({schema.ItemOf(2, 0)}), 5);              // Boston x5
  EXPECT_EQ(find({schema.ItemOf(4, 0)}), 6);              // Age 20-30 x6
  EXPECT_EQ(find({schema.ItemOf(5, 2)}), 8);              // Salary 90-120 x8
  EXPECT_EQ(find({schema.ItemOf(4, 0), schema.ItemOf(5, 2)}), 5);  // RG pair
  EXPECT_EQ(find({schema.ItemOf(0, 0)}), -1);             // IBM only x3
}

// Localized rule RL = (Age=30-40 => Salary=90K-120K) for female Seattle
// employees: 75% support (3/4), 100% confidence (3/3).
TEST(SalaryDatasetTest, LocalizedRuleRL) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  ItemId age_a1 = schema.ItemOf(4, 1);     // Age=30-40
  ItemId salary_s2 = schema.ItemOf(5, 2);  // Salary=90K-120K

  // Focal subset: Location=Seattle AND Gender=F (the last four records).
  std::vector<Tid> subset;
  for (Tid t = 0; t < data.num_records(); ++t) {
    if (data.Value(t, 2) == 2 && data.Value(t, 3) == 1) subset.push_back(t);
  }
  ASSERT_EQ(subset.size(), 4u);

  uint32_t both = 0;
  uint32_t age_only = 0;
  for (Tid t : subset) {
    bool age = data.ContainsItem(t, age_a1);
    if (age) ++age_only;
    if (age && data.ContainsItem(t, salary_s2)) ++both;
  }
  EXPECT_EQ(both, 3u);
  EXPECT_EQ(age_only, 3u);
}

// The global rule RG does NOT hold in the female-Seattle subset (the
// Simpson's-paradox flip the paper's introduction walks through).
TEST(SalaryDatasetTest, GlobalRuleFlipsLocally) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  ItemId age_a0 = schema.ItemOf(4, 0);
  ItemId salary_s2 = schema.ItemOf(5, 2);
  uint32_t both = 0;
  for (Tid t = 0; t < data.num_records(); ++t) {
    if (data.Value(t, 2) == 2 && data.Value(t, 3) == 1 &&
        data.ContainsItem(t, age_a0) && data.ContainsItem(t, salary_s2)) {
      ++both;
    }
  }
  EXPECT_EQ(both, 0u);  // RG has zero local support
}

}  // namespace
}  // namespace colarm
