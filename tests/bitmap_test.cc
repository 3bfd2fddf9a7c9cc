#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/hybrid_tidset.h"
#include "bitmap/vertical_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "mining/local_counter.h"
#include "plans/focal_subset.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

// A random bitmap over a deliberately non-word-aligned universe, paired
// with its reference membership vector.
std::pair<Bitmap, std::vector<bool>> RandomBitmap(Rng* rng, uint32_t size,
                                                  double density) {
  Bitmap bits(size);
  std::vector<bool> ref(size, false);
  for (Tid t = 0; t < size; ++t) {
    if (rng->Bernoulli(density)) {
      bits.Set(t);
      ref[t] = true;
    }
  }
  return {std::move(bits), std::move(ref)};
}

TEST(BitmapTest, FromTidsRoundTrip) {
  Tidset tids = {0, 1, 5, 63, 64, 65, 127, 129};
  Bitmap bits = Bitmap::FromTids(tids, 130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.Count(), tids.size());
  for (Tid t : tids) EXPECT_TRUE(bits.Test(t));
  EXPECT_FALSE(bits.Test(2));
  EXPECT_FALSE(bits.Test(128));
  EXPECT_EQ(bits.ToTids(), tids);
}

TEST(BitmapTest, FillKeepsSlackBitsZero) {
  for (uint32_t size : {1u, 63u, 64u, 65u, 130u, 257u}) {
    Bitmap bits(size);
    bits.Fill();
    EXPECT_EQ(bits.Count(), size) << size;
    EXPECT_EQ(bits.ToTids().size(), size) << size;
    // The slack invariant is what makes Count/SumOfBits trustworthy.
    Bitmap other(size);
    other.Fill();
    EXPECT_EQ(Bitmap::AndCount(bits, other), size) << size;
  }
}

TEST(BitmapTest, KernelsMatchReference) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t size = 70 + static_cast<uint32_t>(rng.Uniform(200));
    auto [a, ref_a] = RandomBitmap(&rng, size, 0.4);
    auto [b, ref_b] = RandomBitmap(&rng, size, 0.3);
    auto [c, ref_c] = RandomBitmap(&rng, size, 0.5);

    uint64_t and_count = 0, and3_count = 0, sum = 0;
    for (Tid t = 0; t < size; ++t) {
      and_count += ref_a[t] && ref_b[t];
      and3_count += ref_a[t] && ref_b[t] && ref_c[t];
      if (ref_a[t]) sum += t;
    }
    EXPECT_EQ(Bitmap::AndCount(a, b), and_count);
    EXPECT_EQ(Bitmap::And3Count(a, b, c), and3_count);
    EXPECT_EQ(a.SumOfBits(), sum);
    EXPECT_EQ(a.CountRange(0, a.num_words()), a.Count());

    Bitmap out(size);
    Bitmap::AndInto(a, b, &out);
    EXPECT_EQ(out.Count(), and_count);

    Bitmap and_copy = a;
    and_copy.AndWith(b);
    EXPECT_EQ(and_copy, out);

    Bitmap or_copy = a;
    or_copy.OrWith(b);
    Bitmap not_copy = a;
    not_copy.AndNotWith(b);
    for (Tid t = 0; t < size; ++t) {
      EXPECT_EQ(or_copy.Test(t), ref_a[t] || ref_b[t]);
      EXPECT_EQ(not_copy.Test(t), ref_a[t] && !ref_b[t]);
    }
  }
}

TEST(BitmapTest, RangeKernelsShardConsistently) {
  Rng rng(13);
  const uint32_t size = 513;
  auto [a, ref_a] = RandomBitmap(&rng, size, 0.4);
  auto [b, ref_b] = RandomBitmap(&rng, size, 0.4);

  // Sharding any kernel by word ranges recombines to the whole-array
  // result — the property DQ materialization's parallel split relies on.
  uint64_t total = 0;
  const uint32_t words = a.num_words();
  for (uint32_t begin = 0; begin < words; begin += 3) {
    total += Bitmap::AndCountRange(a, b, begin, std::min(begin + 3, words));
  }
  EXPECT_EQ(total, Bitmap::AndCount(a, b));

  Bitmap sharded = a;
  for (uint32_t begin = 0; begin < words; begin += 2) {
    sharded.AndWithRange(b, begin, std::min(begin + 2, words));
  }
  Bitmap whole = a;
  whole.AndWith(b);
  EXPECT_EQ(sharded, whole);
}

TEST(VerticalIndexTest, MatchesDatasetOneHot) {
  Dataset dataset = RandomDataset(21, 150, 4, 3);
  const Schema& schema = dataset.schema();
  VerticalIndex vertical = VerticalIndex::Build(dataset, nullptr);
  ASSERT_FALSE(vertical.empty());
  EXPECT_EQ(vertical.num_records(), dataset.num_records());
  EXPECT_EQ(vertical.num_items(), schema.num_items());
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    for (Tid t = 0; t < dataset.num_records(); ++t) {
      ItemId item = schema.ItemOf(a, dataset.Value(t, a));
      EXPECT_TRUE(vertical.item(item).Test(t));
    }
  }
  // Each attribute's value bitmaps partition the records.
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    uint64_t total = 0;
    for (ValueId v = 0; v < schema.attribute(a).domain_size(); ++v) {
      total += vertical.item(schema.ItemOf(a, v)).Count();
    }
    EXPECT_EQ(total, dataset.num_records());
  }
}

TEST(VerticalIndexTest, ParallelBuildIsIdentical) {
  Dataset dataset = RandomDataset(22, 300, 5, 4);
  VerticalIndex sequential = VerticalIndex::Build(dataset, nullptr);
  ThreadPool pool(4);
  VerticalIndex parallel = VerticalIndex::Build(dataset, &pool);
  ASSERT_EQ(parallel.num_items(), sequential.num_items());
  for (ItemId i = 0; i < sequential.num_items(); ++i) {
    EXPECT_EQ(parallel.item(i), sequential.item(i)) << "item " << i;
  }
}

TEST(BitmapCounterTest, LocalCountMatchesRowScan) {
  Dataset dataset = RandomDataset(31, 250, 4, 3);
  const Schema& schema = dataset.schema();
  VerticalIndex vertical = VerticalIndex::Build(dataset, nullptr);
  Rect box = Rect::FullDomain(schema);
  box.SetInterval(0, 0, 1);
  FocalSubset subset = FocalSubset::Materialize(dataset, box);
  Bitmap dq = Bitmap::FromTids(subset.tids, dataset.num_records());
  Bitmap scratch(dataset.num_records());

  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    Itemset items;
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      if (rng.Bernoulli(0.5)) {
        items.push_back(schema.ItemOf(a, static_cast<ValueId>(rng.Uniform(3))));
      }
    }
    std::sort(items.begin(), items.end());
    uint32_t expected = 0;
    for (Tid t : subset.tids) expected += dataset.ContainsAll(t, items);
    EXPECT_EQ(BitmapLocalCount(vertical, dq, items, &scratch), expected);
  }
}

// The one density bar: at least one record per 64-bit word.
TEST(DensityTest, BarIsOneRecordPerWord) {
  EXPECT_TRUE(IsDense(4, 256));
  EXPECT_FALSE(IsDense(3, 256));
  // 25,568 records span 399.5 words: 400 records clear the bar, 399 do not.
  EXPECT_TRUE(IsDense(400, 25568));
  EXPECT_FALSE(IsDense(399, 25568));
  EXPECT_TRUE(IsDense(1, 64));
  EXPECT_FALSE(IsDense(0, 1));
}

TEST(HybridTidsetTest, PicksRepresentationByDensity) {
  // 4 tids over 256 records: 4 * 64 = 256 >= 256, the dense boundary.
  Tidset boundary = {0, 64, 128, 192};
  EXPECT_TRUE(HybridTidset::FromTids(boundary, 256).dense());
  Tidset sparse = {0, 64, 128};
  EXPECT_FALSE(HybridTidset::FromTids(sparse, 256).dense());
}

TEST(HybridTidsetTest, IntersectMatchesMergeAcrossRepresentations) {
  Rng rng(91);
  const uint32_t universe = 300;
  // Densities straddling the 1/64 threshold give all four representation
  // pairings across trials.
  const double densities[] = {0.005, 0.02, 0.3, 0.9};
  for (double da : densities) {
    for (double db : densities) {
      Tidset ta, tb;
      for (Tid t = 0; t < universe; ++t) {
        if (rng.Bernoulli(da)) ta.push_back(t);
        if (rng.Bernoulli(db)) tb.push_back(t);
      }
      HybridTidset a = HybridTidset::FromTids(ta, universe);
      HybridTidset b = HybridTidset::FromTids(tb, universe);
      Tidset expected = TidsetIntersect(ta, tb);
      HybridTidset got = HybridTidset::Intersect(a, b);
      EXPECT_EQ(got.size(), expected.size());
      EXPECT_EQ(got.ToTids(), expected);
      EXPECT_EQ(got.Sum(), TidsetSum(expected));
      EXPECT_EQ(a.ToTids(), ta);
      EXPECT_EQ(a.Sum(), TidsetSum(ta));
    }
  }
}

TEST(HybridTidsetTest, ClearDropsStorage) {
  Tidset tids;
  for (Tid t = 0; t < 200; ++t) tids.push_back(t);
  HybridTidset dense = HybridTidset::FromTids(tids, 200);
  ASSERT_TRUE(dense.dense());
  dense.clear();
  EXPECT_EQ(dense.size(), 0u);
  EXPECT_TRUE(dense.ToTids().empty());
}

}  // namespace
}  // namespace colarm
