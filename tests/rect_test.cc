#include <gtest/gtest.h>

#include <cmath>

#include "data/salary_dataset.h"
#include "rtree/rect.h"

namespace colarm {
namespace {

Rect Box2(ValueId lo0, ValueId hi0, ValueId lo1, ValueId hi1) {
  Rect rect = Rect::MakeEmpty(2);
  rect.SetInterval(0, lo0, hi0);
  rect.SetInterval(1, lo1, hi1);
  return rect;
}

TEST(RectTest, EmptyByDefault) {
  EXPECT_TRUE(Rect().empty());
  EXPECT_TRUE(Rect::MakeEmpty(3).empty());
  EXPECT_EQ(Rect::MakeEmpty(3).dims(), 3u);
}

TEST(RectTest, FullDomainCoversSchema) {
  Dataset data = MakeSalaryDataset();
  Rect full = Rect::FullDomain(data.schema());
  EXPECT_EQ(full.dims(), 6u);
  EXPECT_EQ(full.lo(0), 0);
  EXPECT_EQ(full.hi(0), 3);  // four companies
  EXPECT_EQ(full.hi(5), 3);  // four salary bands
  EXPECT_FALSE(full.empty());
}

TEST(RectTest, FromPoint) {
  std::vector<ValueId> point = {2, 5};
  Rect rect = Rect::FromPoint(point);
  EXPECT_EQ(rect.lo(0), 2);
  EXPECT_EQ(rect.hi(0), 2);
  EXPECT_EQ(rect.Extent(1), 1u);
}

TEST(RectTest, ExpandToInclude) {
  Rect a = Box2(1, 2, 5, 6);
  a.ExpandToInclude(Box2(0, 1, 7, 9));
  EXPECT_EQ(a, Box2(0, 2, 5, 9));

  Rect empty = Rect::MakeEmpty(2);
  empty.ExpandToInclude(Box2(3, 4, 3, 4));
  EXPECT_EQ(empty, Box2(3, 4, 3, 4));
}

TEST(RectTest, ExpandToIncludePoint) {
  Rect rect = Box2(2, 2, 2, 2);
  std::vector<ValueId> point = {0, 5};
  rect.ExpandToIncludePoint(point);
  EXPECT_EQ(rect, Box2(0, 2, 2, 5));
}

TEST(RectTest, Intersects) {
  EXPECT_TRUE(Box2(0, 5, 0, 5).Intersects(Box2(5, 9, 5, 9)));  // touch
  EXPECT_FALSE(Box2(0, 4, 0, 9).Intersects(Box2(5, 9, 0, 9)));
  EXPECT_FALSE(Box2(0, 9, 0, 4).Intersects(Box2(0, 9, 5, 9)));
  EXPECT_FALSE(Rect::MakeEmpty(2).Intersects(Box2(0, 9, 0, 9)));
}

TEST(RectTest, Contains) {
  EXPECT_TRUE(Box2(0, 9, 0, 9).Contains(Box2(2, 3, 4, 5)));
  EXPECT_TRUE(Box2(0, 9, 0, 9).Contains(Box2(0, 9, 0, 9)));
  EXPECT_FALSE(Box2(0, 9, 0, 9).Contains(Box2(2, 10, 4, 5)));
  EXPECT_FALSE(Rect::MakeEmpty(2).Contains(Box2(1, 1, 1, 1)));
  EXPECT_TRUE(Box2(0, 9, 0, 9).Contains(Rect::MakeEmpty(2)));
}

TEST(RectTest, ContainsPoint) {
  std::vector<ValueId> inside = {3, 4};
  std::vector<ValueId> outside = {3, 10};
  EXPECT_TRUE(Box2(0, 9, 0, 9).ContainsPoint(inside));
  EXPECT_FALSE(Box2(0, 9, 0, 9).ContainsPoint(outside));
}

TEST(RectTest, ExtentAndNormalized) {
  Rect rect = Box2(2, 4, 1, 1);
  EXPECT_EQ(rect.Extent(0), 3u);
  EXPECT_EQ(rect.Extent(1), 1u);
  EXPECT_DOUBLE_EQ(rect.NormalizedExtent(0, 10), 0.3);
  EXPECT_DOUBLE_EQ(rect.NormalizedExtent(1, 4), 0.25);
}

TEST(RectTest, LogVolume) {
  Rect unit = Box2(3, 3, 7, 7);
  EXPECT_DOUBLE_EQ(unit.LogVolume(), 0.0);  // 1x1 box
  Rect bigger = Box2(0, 9, 0, 1);
  EXPECT_NEAR(bigger.LogVolume(), std::log(10.0) + std::log(2.0), 1e-12);
  EXPECT_TRUE(std::isinf(Rect::MakeEmpty(2).LogVolume()));
}

// The dimensions on which a box fails to cover another: narrowed on either
// side counts, equal or reaching past does not.
TEST(RectTest, NarrowedDims) {
  const Rect outer = Box2(2, 8, 2, 8);
  EXPECT_TRUE(NarrowedDims(outer, outer).empty());
  EXPECT_TRUE(NarrowedDims(Box2(0, 9, 2, 8), outer).empty());
  EXPECT_EQ(NarrowedDims(Box2(3, 8, 2, 8), outer), std::vector<uint32_t>{0});
  EXPECT_EQ(NarrowedDims(Box2(0, 9, 2, 7), outer), std::vector<uint32_t>{1});
  EXPECT_EQ(NarrowedDims(Box2(0, 5, 5, 5), outer),
            (std::vector<uint32_t>{0, 1}));
}

TEST(RectTest, ToString) {
  EXPECT_EQ(Box2(1, 2, 3, 4).ToString(), "[1..2 x 3..4]");
}

}  // namespace
}  // namespace colarm
