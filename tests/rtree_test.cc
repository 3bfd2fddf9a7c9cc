#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "mip/mip_index.h"
#include "rtree/bulk_load.h"
#include "test_util.h"

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
  tree.Search(query, [&hits](uint32_t id, uint32_t, bool) { hits.insert(id); });
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
  tree.Search(query, [&](uint32_t id, uint32_t, bool c) {
    contained[id] = c;
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
                         [&](uint32_t id, uint32_t, bool) { actual.insert(id); },
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
  tree.Search(query, [](uint32_t, uint32_t, bool) {}, &plain);
  RTree::SearchStats supported;
  tree.SearchSupported(query, 999,
                       [](uint32_t, uint32_t, bool) {}, &supported);
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

// SEARCH's reference: the same descent over the tree's nodes, testing a
// Rect copy of each slot's bounds with Rect::Intersects and Rect::Contains
// instead of the flat-bounds tests.
void ReferenceDescent(const RTree& tree, uint32_t node_id, const Rect& query,
                      std::optional<uint32_t> min_count,
                      std::set<uint32_t>* contained,
                      std::set<uint32_t>* overlapped,
                      RTree::SearchStats* stats) {
  const RTree::NodeView node = tree.node(node_id);
  ++stats->nodes_visited;
  for (uint32_t slot = node.first_slot; slot < node.first_slot + node.fanout;
       ++slot) {
    ++stats->boxes_checked;
    if (min_count.has_value() && tree.SlotCount(slot) < *min_count) {
      ++stats->entries_pruned_by_support;
      continue;
    }
    const Rect box = tree.SlotBox(slot);
    if (!query.Intersects(box)) continue;
    if (node.leaf) {
      (query.Contains(box) ? contained : overlapped)->insert(tree.SlotId(slot));
    } else {
      ReferenceDescent(tree, tree.SlotId(slot), query, min_count, contained,
                       overlapped, stats);
    }
  }
}

// The flat layout against a linear scan over the MIPs' boxes: Search and
// SearchSupported return the same contained and overlapped ids, and the
// same SearchStats as the Rect-based descent, on random (and empty) boxes.
TEST(RTreeTest, FlatSearchMatchesLinearScanOverMipBoxes) {
  const Dataset data = testing_util::RandomDataset(21, 600, 6, 5);
  for (bool str : {true, false}) {
    auto index = MipIndex::Build(
        data, {.primary_support = 0.04, .use_str_packing = str});
    ASSERT_TRUE(index.ok());
    const RTree& tree = index->rtree();
    ASSERT_GT(tree.height(), 2u);
    EXPECT_TRUE(tree.CheckInvariants());
    Rng rng(str ? 22 : 23);
    size_t contained = 0;
    size_t overlapped = 0;
    for (int q = 0; q < 60; ++q) {
      // Full domain but one or two attributes, so some MIP boxes (pinned
      // on their items' attributes) fall inside; every 15th box is empty.
      Rect query = Rect::FullDomain(data.schema());
      for (uint32_t k = 0; k <= rng.Uniform(2); ++k) {
        const auto lo = static_cast<ValueId>(rng.Uniform(5));
        query.SetInterval(static_cast<uint32_t>(rng.Uniform(6)), lo,
                          static_cast<ValueId>(lo + rng.Uniform(5 - lo)));
      }
      if (q % 15 == 0) query.SetInterval(q % 6, 3, 2);
      for (std::optional<uint32_t> min_count :
           {std::optional<uint32_t>(),
            std::optional<uint32_t>(rng.Uniform(120))}) {
        std::set<uint32_t> want_in, want_out;
        for (uint32_t id = 0; id < index->num_mips(); ++id) {
          const Mip& mip = index->mip(id);
          if (min_count.has_value() && mip.global_count < *min_count) continue;
          if (!query.Intersects(mip.bbox)) continue;
          (query.Contains(mip.bbox) ? want_in : want_out).insert(id);
        }
        std::set<uint32_t> got_in, got_out;
        auto visitor = [&](uint32_t id, uint32_t count, bool inside) {
          EXPECT_EQ(count, index->mip(id).global_count);
          (inside ? got_in : got_out).insert(id);
        };
        RTree::SearchStats got;
        if (min_count.has_value()) {
          tree.SearchSupported(query, *min_count, visitor, &got);
        } else {
          tree.Search(query, visitor, &got);
        }
        EXPECT_EQ(got_in, want_in) << q;
        EXPECT_EQ(got_out, want_out) << q;
        contained += got_in.size();
        overlapped += got_out.size();

        std::set<uint32_t> ref_in, ref_out;
        RTree::SearchStats want;
        ReferenceDescent(tree, tree.root(), query, min_count, &ref_in,
                         &ref_out, &want);
        EXPECT_EQ(got, want) << q;
        EXPECT_EQ(ref_in, want_in) << q;
        EXPECT_EQ(ref_out, want_out) << q;
      }
    }
    EXPECT_GT(contained, 0u);
    EXPECT_GT(overlapped, 0u);
  }
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
