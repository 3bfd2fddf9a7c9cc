#include <gtest/gtest.h>

#include "common/rng.h"
#include "mining/tidset.h"

namespace colarm {
namespace {

TEST(TidsetTest, Intersect) {
  EXPECT_EQ(TidsetIntersect(Tidset{1, 3, 5, 7}, Tidset{2, 3, 7, 9}),
            (Tidset{3, 7}));
  EXPECT_EQ(TidsetIntersect(Tidset{}, Tidset{1}), Tidset{});
  EXPECT_EQ(TidsetIntersect(Tidset{1, 2}, Tidset{1, 2}), (Tidset{1, 2}));
}

TEST(TidsetTest, IntersectIntoReusesBuffer) {
  Tidset out = {99, 98};
  TidsetIntersectInto(Tidset{1, 2, 3}, Tidset{2, 3, 4}, &out);
  EXPECT_EQ(out, (Tidset{2, 3}));
}

TEST(TidsetTest, IntersectSizeMatchesIntersect) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Tidset a;
    Tidset b;
    for (Tid t = 0; t < 200; ++t) {
      if (rng.Bernoulli(0.3)) a.push_back(t);
      if (rng.Bernoulli(0.3)) b.push_back(t);
    }
    EXPECT_EQ(TidsetIntersectSize(a, b), TidsetIntersect(a, b).size());
  }
}

// Size-skewed operands route through the galloping (exponential-probe)
// path; heavily random trials pin it to the merge loop's answers.
TEST(TidsetTest, GallopingIntersectSizeMatchesMerge) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    Tidset small;
    Tidset big;
    // |big| > 32 * |small| forces the gallop on every call.
    for (Tid t = 0; t < 4000; ++t) {
      if (rng.Bernoulli(0.5)) big.push_back(t);
      if (rng.Bernoulli(0.005)) small.push_back(t);
    }
    EXPECT_EQ(TidsetIntersectSize(small, big),
              TidsetIntersect(small, big).size());
    EXPECT_EQ(TidsetIntersectSize(big, small),
              TidsetIntersect(small, big).size());
  }
  // Edge shapes: empty probe side, probe past the end of the big side,
  // single elements before, inside, and after the big side's range.
  Tidset big;
  for (Tid t = 100; t < 2100; ++t) big.push_back(t);
  EXPECT_EQ(TidsetIntersectSize(Tidset{}, big), 0u);
  EXPECT_EQ(TidsetIntersectSize(Tidset{5}, big), 0u);
  EXPECT_EQ(TidsetIntersectSize(Tidset{100}, big), 1u);
  EXPECT_EQ(TidsetIntersectSize(Tidset{2099}, big), 1u);
  EXPECT_EQ(TidsetIntersectSize(Tidset{3000}, big), 0u);
  EXPECT_EQ(TidsetIntersectSize(Tidset{5, 150, 3000}, big), 1u);
}

TEST(TidsetTest, Sum) {
  EXPECT_EQ(TidsetSum(Tidset{}), 0u);
  EXPECT_EQ(TidsetSum(Tidset{1, 2, 3}), 6u);
}

}  // namespace
}  // namespace colarm
