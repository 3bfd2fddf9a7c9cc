#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "rtree/bulk_load.h"

namespace colarm {
namespace {

Rect RandomBox(Rng& rng, uint32_t dims, uint32_t domain, uint32_t max_extent) {
  Rect box = Rect::MakeEmpty(dims);
  for (uint32_t d = 0; d < dims; ++d) {
    ValueId lo = static_cast<ValueId>(rng.Uniform(domain));
    ValueId hi = static_cast<ValueId>(
        std::min<uint64_t>(domain - 1, lo + rng.Uniform(max_extent)));
    box.SetInterval(d, lo, hi);
  }
  return box;
}

std::vector<RTreeEntry> RandomEntries(uint64_t seed, uint32_t count,
                                      uint32_t dims, uint32_t domain,
                                      uint32_t max_extent) {
  Rng rng(seed);
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < count; ++i) {
    entries.push_back({RandomBox(rng, dims, domain, max_extent), i,
                       static_cast<uint32_t>(rng.Uniform(1000))});
  }
  return entries;
}

std::set<uint32_t> BruteForceSearch(const std::vector<RTreeEntry>& entries,
                                    const Rect& query) {
  std::set<uint32_t> hits;
  for (const RTreeEntry& e : entries) {
    if (query.Intersects(e.box)) hits.insert(e.id);
  }
  return hits;
}

std::set<uint32_t> TreeSearch(const RTree& tree, const Rect& query) {
  std::set<uint32_t> hits;
  tree.Search(query, [&hits](const RTreeEntry& e, bool) { hits.insert(e.id); });
  return hits;
}

using RTreeParam = std::tuple<uint64_t, uint32_t, uint32_t>;  // seed, n, dims

class RTreeSearchTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreeSearchTest, MatchesBruteForceAndKeepsInvariants) {
  auto [seed, count, dims] = GetParam();
  auto entries = RandomEntries(seed, count, dims, 40, 8);
  // Both loaders that build the MIP-index: tiled (STR) and caller-ordered.
  for (const RTree& tree :
       {BulkLoadSTR(dims, entries), BulkLoadPacked(dims, entries)}) {
    EXPECT_EQ(tree.size(), count);
    EXPECT_TRUE(tree.CheckInvariants());

    Rng rng(seed ^ 0xabcdef);
    for (int q = 0; q < 25; ++q) {
      Rect query = RandomBox(rng, dims, 40, 15);
      EXPECT_EQ(TreeSearch(tree, query), BruteForceSearch(entries, query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RTreeSearchTest,
                         ::testing::Values(RTreeParam{1, 10, 2},
                                           RTreeParam{2, 100, 2},
                                           RTreeParam{3, 500, 3},
                                           RTreeParam{4, 300, 5},
                                           RTreeParam{5, 200, 8},
                                           RTreeParam{6, 64, 1},
                                           RTreeParam{7, 1000, 2}));

TEST(RTreeTest, EmptyTreeSearch) {
  RTree tree(3);
  Rect query = Rect::FullDomain(Schema({{"a", {"x", "y"}},
                                        {"b", {"x", "y"}},
                                        {"c", {"x", "y"}}}));
  EXPECT_TRUE(TreeSearch(tree, query).empty());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.height(), 1u);
}

TEST(RTreeTest, ContainedFlagIsCorrect) {
  Rect inner = Rect::MakeEmpty(2);
  inner.SetInterval(0, 2, 3);
  inner.SetInterval(1, 2, 3);
  Rect crossing = Rect::MakeEmpty(2);
  crossing.SetInterval(0, 0, 9);
  crossing.SetInterval(1, 2, 3);
  RTree tree = BulkLoadPacked(2, {{inner, 1, 10}, {crossing, 2, 10}});

  Rect query = Rect::MakeEmpty(2);
  query.SetInterval(0, 1, 5);
  query.SetInterval(1, 1, 5);
  std::map<uint32_t, bool> contained;
  tree.Search(query, [&](const RTreeEntry& e, bool c) {
    contained[e.id] = c;
  });
  ASSERT_EQ(contained.size(), 2u);
  EXPECT_TRUE(contained[1]);
  EXPECT_FALSE(contained[2]);
}

TEST(RTreeTest, SupportedSearchPrunesByCount) {
  const uint32_t dims = 2;
  auto entries = RandomEntries(42, 400, dims, 30, 6);
  RTree tree = BulkLoadSTR(dims, entries);

  Rng rng(43);
  for (int q = 0; q < 20; ++q) {
    Rect query = RandomBox(rng, dims, 30, 12);
    uint32_t min_count = static_cast<uint32_t>(rng.Uniform(1200));
    std::set<uint32_t> expected;
    for (const RTreeEntry& e : entries) {
      if (e.count >= min_count && query.Intersects(e.box)) {
        expected.insert(e.id);
      }
    }
    std::set<uint32_t> actual;
    RTree::SearchStats stats;
    tree.SearchSupported(query, min_count,
                         [&](const RTreeEntry& e, bool) { actual.insert(e.id); },
                         &stats);
    EXPECT_EQ(actual, expected);
  }
}

TEST(RTreeTest, SupportedSearchVisitsFewerNodes) {
  auto entries = RandomEntries(7, 800, 3, 50, 5);
  RTree tree = BulkLoadSTR(3, entries);
  Rect query = Rect::MakeEmpty(3);
  for (uint32_t d = 0; d < 3; ++d) query.SetInterval(d, 0, 49);

  RTree::SearchStats plain;
  tree.Search(query, [](const RTreeEntry&, bool) {}, &plain);
  RTree::SearchStats supported;
  tree.SearchSupported(query, 999,
                       [](const RTreeEntry&, bool) {}, &supported);
  EXPECT_GT(supported.entries_pruned_by_support, 0u);
  EXPECT_LE(supported.nodes_visited, plain.nodes_visited);
}

TEST(RTreeTest, ForEachNodeLevelsAreConsistent) {
  auto entries = RandomEntries(17, 600, 2, 40, 6);
  RTree tree = BulkLoadSTR(2, entries);
  uint32_t max_level = 0;
  uint32_t leaf_level = UINT32_MAX;
  tree.ForEachNode([&](uint32_t level, const Rect&, bool leaf, uint32_t) {
    max_level = std::max(max_level, level);
    if (leaf) {
      if (leaf_level == UINT32_MAX) leaf_level = level;
      EXPECT_EQ(level, leaf_level);  // all leaves at same depth
    }
  });
  EXPECT_EQ(max_level + 1, tree.height());
}

// Packing fills every node but the last per level, so a packed tree is as
// shallow as any R-tree with the same fanout can be: the least h with
// max_entries^h >= n. No tree with that node capacity is shallower.
TEST(RTreeTest, PackedHeightIsMinimal) {
  const uint32_t fanout = RTree::Options().max_entries;
  for (uint32_t count : {1u, 16u, 17u, 256u, 257u, 2000u}) {
    auto entries = RandomEntries(19, count, 2, 60, 3);
    uint32_t min_height = 1;
    for (uint64_t reach = fanout; reach < count; reach *= fanout) {
      ++min_height;
    }
    EXPECT_EQ(BulkLoadSTR(2, entries).height(), min_height) << count;
    EXPECT_EQ(BulkLoadPacked(2, entries).height(), min_height) << count;
  }
}

}  // namespace
}  // namespace colarm
