#include <gtest/gtest.h>

#include "data/salary_dataset.h"
#include "plans/focal_subset.h"
#include "plans/query.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

FocalSubset Select(const Dataset& data, const Rect& box) {
  return FocalSubset::Materialize(data, VerticalIndex::Build(data, nullptr),
                                  box);
}

TEST(FocalSubsetTest, FullDomainSelectsEverything) {
  Dataset data = MakeSalaryDataset();
  FocalSubset subset = Select(data, Rect::FullDomain(data.schema()));
  EXPECT_EQ(subset.size(), data.num_records());
  for (Tid t = 0; t < data.num_records(); ++t) {
    EXPECT_EQ(subset.tids[t], t);
  }
}

TEST(FocalSubsetTest, SeattleFemales) {
  Dataset data = MakeSalaryDataset();
  LocalizedQuery query;
  query.ranges = {{2, 2, 2}, {3, 1, 1}};
  FocalSubset subset = Select(data, query.ToRect(data.schema()));
  EXPECT_EQ(subset.tids, (std::vector<Tid>{7, 8, 9, 10}));
}

TEST(FocalSubsetTest, EmptySelection) {
  Dataset data = MakeSalaryDataset();
  LocalizedQuery query;
  query.ranges = {{0, 3, 3}, {2, 1, 1}};  // Facebook in SFO: none
  FocalSubset subset = Select(data, query.ToRect(data.schema()));
  EXPECT_EQ(subset.size(), 0u);
}

TEST(FocalSubsetTest, TidsAreSortedUnique) {
  Dataset data = RandomDataset(5, 200, 4, 4);
  LocalizedQuery query;
  query.ranges = {{1, 0, 1}};
  FocalSubset subset = Select(data, query.ToRect(data.schema()));
  for (size_t i = 1; i < subset.tids.size(); ++i) {
    EXPECT_LT(subset.tids[i - 1], subset.tids[i]);
  }
}

// SELECT against a row-by-row membership test, box by box. The relation's
// 300 records are not a multiple of 64, so the last bitmap word is partial
// and no tid past the relation may appear. Each box's bitmap must hold
// exactly its tids, and SELECT charges the relation size as record checks
// iff the box narrows an attribute.
TEST(FocalSubsetTest, MatchesBruteForceMembership) {
  Dataset data = RandomDataset(6, 300, 5, 4);
  const uint32_t m = data.num_records();
  ASSERT_NE(m % Bitmap::kBitsPerWord, 0u);
  const VerticalIndex vertical = VerticalIndex::Build(data, nullptr);
  constexpr int64_t kAny = -1;
  struct Box {
    const char* name;
    std::vector<RangeSelection> ranges;
    bool narrows;
    int64_t size;  // kAny, or the size the box must select
  };
  const Box boxes[] = {
      {"two attributes (AND)", {{0, 1, 2}, {3, 0, 1}}, true, kAny},
      {"all values but one", {{1, 0, 2}}, true, kAny},
      {"single value", {{2, 3, 3}}, true, kAny},
      {"empty",
       {{0, 3, 3}, {1, 3, 3}, {2, 3, 3}, {3, 3, 3}, {4, 3, 3}},
       true,
       0},
      {"full domain", {}, false, m},
      {"range spanning the domain", {{4, 0, 3}}, false, m},
  };
  for (const Box& b : boxes) {
    LocalizedQuery query;
    query.ranges = b.ranges;
    const Rect box = query.ToRect(data.schema());
    uint64_t checks = 0;
    const FocalSubset subset =
        FocalSubset::Materialize(data, vertical, box, &checks);
    std::vector<Tid> expected;
    for (Tid t = 0; t < m; ++t) {
      bool inside = true;
      for (AttrId a = 0; a < data.num_attributes(); ++a) {
        const ValueId v = data.Value(t, a);
        inside = inside && v >= box.lo(a) && v <= box.hi(a);
      }
      if (inside) expected.push_back(t);
    }
    EXPECT_EQ(subset.tids, expected) << b.name;
    EXPECT_EQ(subset.bitmap, Bitmap::FromTids(subset.tids, m)) << b.name;
    EXPECT_EQ(checks, b.narrows ? m : 0u) << b.name;
    if (b.size != kAny) {
      EXPECT_EQ(subset.size(), b.size) << b.name;
    }
  }
}

}  // namespace
}  // namespace colarm
