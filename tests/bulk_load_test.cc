#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/rng.h"
#include "rtree/bulk_load.h"

namespace colarm {
namespace {

std::vector<RTreeEntry> RandomEntries(uint64_t seed, uint32_t count,
                                      uint32_t dims, uint32_t domain) {
  Rng rng(seed);
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < count; ++i) {
    Rect box = Rect::MakeEmpty(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      ValueId lo = static_cast<ValueId>(rng.Uniform(domain));
      ValueId hi = static_cast<ValueId>(
          std::min<uint64_t>(domain - 1, lo + rng.Uniform(5)));
      box.SetInterval(d, lo, hi);
    }
    entries.push_back({box, i, static_cast<uint32_t>(rng.Uniform(500))});
  }
  return entries;
}

// Search, or SearchSupported when `min_count` is given, as an id set.
std::set<uint32_t> Hits(const RTree& tree, const Rect& query,
                        std::optional<uint32_t> min_count = std::nullopt) {
  Bitmap hits(tree.size());
  if (min_count.has_value()) {
    tree.SearchSupported(query, *min_count, &hits, &hits);
  } else {
    tree.Search(query, &hits, &hits);
  }
  std::set<uint32_t> out;
  hits.ForEachSet([&out](uint32_t id) { out.insert(id); });
  return out;
}

std::set<uint32_t> BruteHits(const std::vector<RTreeEntry>& entries,
                             const Rect& query) {
  std::set<uint32_t> out;
  for (const RTreeEntry& e : entries) {
    if (query.Intersects(e.box)) out.insert(e.id);
  }
  return out;
}

class BulkLoadTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BulkLoadTest, STRSearchMatchesBruteForce) {
  const uint32_t count = GetParam();
  auto entries = RandomEntries(100 + count, count, 3, 30);
  RTree tree = BulkLoadSTR(3, entries);
  EXPECT_EQ(tree.size(), count);
  EXPECT_TRUE(tree.CheckInvariants());
  Rng rng(3);
  for (int q = 0; q < 20; ++q) {
    Rect query = Rect::MakeEmpty(3);
    for (uint32_t d = 0; d < 3; ++d) {
      ValueId lo = static_cast<ValueId>(rng.Uniform(30));
      query.SetInterval(d, lo,
                        static_cast<ValueId>(
                            std::min<uint64_t>(29, lo + rng.Uniform(12))));
    }
    EXPECT_EQ(Hits(tree, query), BruteHits(entries, query));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadTest,
                         ::testing::Values(1, 5, 16, 17, 33, 100, 257, 1000));

TEST(BulkLoadTest, PackedSearchMatchesBruteForce) {
  auto entries = RandomEntries(7, 500, 2, 40);
  RTree tree = BulkLoadPacked(2, entries);
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_TRUE(tree.CheckInvariants());
  Rng rng(8);
  for (int q = 0; q < 20; ++q) {
    Rect query = Rect::MakeEmpty(2);
    for (uint32_t d = 0; d < 2; ++d) {
      ValueId lo = static_cast<ValueId>(rng.Uniform(40));
      query.SetInterval(d, lo,
                        static_cast<ValueId>(
                            std::min<uint64_t>(39, lo + rng.Uniform(15))));
    }
    EXPECT_EQ(Hits(tree, query), BruteHits(entries, query));
  }
}

TEST(BulkLoadTest, EmptyInput) {
  RTree tree = BulkLoadSTR(2, {});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BulkLoadTest, PackingAchievesHighUtilization) {
  auto entries = RandomEntries(9, 1024, 2, 50);
  RTree tree = BulkLoadSTR(2, entries);
  uint32_t leaves = 0;
  tree.ForEachNode([&](uint32_t, const Rect&, bool leaf, uint32_t) {
    if (leaf) ++leaves;
  });
  // 1024 entries at fanout 16: a packed build needs exactly 64 leaves.
  EXPECT_EQ(leaves, 64u);
}

TEST(BulkLoadTest, SupportedSearchWorksOnPackedTree) {
  auto entries = RandomEntries(11, 300, 2, 30);
  RTree tree = BulkLoadSTR(2, entries);
  Rect query = Rect::MakeEmpty(2);
  query.SetInterval(0, 0, 29);
  query.SetInterval(1, 0, 29);
  std::set<uint32_t> expected;
  for (const RTreeEntry& e : entries) {
    if (e.count >= 250) expected.insert(e.id);
  }
  EXPECT_EQ(Hits(tree, query, 250), expected);
}

TEST(BulkLoadTest, HighDimensionalBuild) {
  auto entries = RandomEntries(12, 400, 20, 8);
  RTree tree = BulkLoadSTR(20, entries);
  EXPECT_TRUE(tree.CheckInvariants());
  Rect query = Rect::MakeEmpty(20);
  for (uint32_t d = 0; d < 20; ++d) query.SetInterval(d, 0, 7);
  EXPECT_EQ(Hits(tree, query).size(), 400u);  // full-domain query hits all
}

}  // namespace
}  // namespace colarm
