#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

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

// A search's matches as id sets (entry ids are dense in [0, size)).
struct Hits {
  std::set<uint32_t> contained;
  std::set<uint32_t> overlapped;

  std::set<uint32_t> All() const {
    std::set<uint32_t> all = contained;
    all.insert(overlapped.begin(), overlapped.end());
    return all;
  }
};

// Search, or SearchSupported when `min_count` is given.
Hits SearchHits(const RTree& tree, const Rect& query,
                std::optional<uint32_t> min_count = std::nullopt,
                RTree::SearchStats* stats = nullptr) {
  Bitmap contained(tree.size());
  Bitmap overlapped(tree.size());
  if (min_count.has_value()) {
    tree.SearchSupported(query, *min_count, &contained, &overlapped, stats);
  } else {
    tree.Search(query, &contained, &overlapped, stats);
  }
  Hits hits;
  contained.ForEachSet([&](uint32_t id) { hits.contained.insert(id); });
  overlapped.ForEachSet([&](uint32_t id) { hits.overlapped.insert(id); });
  return hits;
}

std::set<uint32_t> TreeSearch(const RTree& tree, const Rect& query) {
  return SearchHits(tree, query).All();
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
  RTree tree = BulkLoadPacked(2, {{inner, 0, 10}, {crossing, 1, 10}});

  Rect query = Rect::MakeEmpty(2);
  query.SetInterval(0, 1, 5);
  query.SetInterval(1, 1, 5);
  const Hits hits = SearchHits(tree, query);
  EXPECT_EQ(hits.contained, std::set<uint32_t>({0}));
  EXPECT_EQ(hits.overlapped, std::set<uint32_t>({1}));
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
    EXPECT_EQ(SearchHits(tree, query, min_count).All(), expected);
  }
}

TEST(RTreeTest, SupportedSearchVisitsFewerNodes) {
  auto entries = RandomEntries(7, 800, 3, 50, 5);
  RTree tree = BulkLoadSTR(3, entries);
  Rect query = Rect::MakeEmpty(3);
  for (uint32_t d = 0; d < 3; ++d) query.SetInterval(d, 0, 49);

  RTree::SearchStats plain;
  SearchHits(tree, query, std::nullopt, &plain);
  RTree::SearchStats supported;
  SearchHits(tree, query, 999, &supported);
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
// Rect copy of each slot's bounds on every dimension with Rect::Intersects
// and Rect::Contains instead of the active-dimension lane tests.
void ReferenceDescent(const RTree& tree, uint32_t node_id, const Rect& query,
                      std::optional<uint32_t> min_count, Hits* hits,
                      RTree::SearchStats* stats) {
  const RTree::NodeView node = tree.node(node_id);
  ++stats->nodes_visited;
  for (uint32_t i = 0; i < node.fanout; ++i) {
    const uint32_t slot = node.first_slot + i;
    ++stats->boxes_checked;
    if (min_count.has_value() && tree.SlotCount(slot) < *min_count) {
      ++stats->entries_pruned_by_support;
      continue;
    }
    const Rect box = tree.SlotBox(node_id, i);
    if (!query.Intersects(box)) continue;
    if (node.leaf) {
      (query.Contains(box) ? hits->contained : hits->overlapped)
          .insert(tree.SlotId(slot));
    } else {
      ReferenceDescent(tree, tree.SlotId(slot), query, min_count, hits,
                       stats);
    }
  }
}

// The lane tests against a linear scan over the MIPs' boxes: Search and
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
        RTree::SearchStats got;
        const Hits hits = SearchHits(tree, query, min_count, &got);
        EXPECT_EQ(hits.contained, want_in) << q;
        EXPECT_EQ(hits.overlapped, want_out) << q;
        contained += hits.contained.size();
        overlapped += hits.overlapped.size();

        Hits ref;
        RTree::SearchStats want;
        ReferenceDescent(tree, tree.root(), query, min_count, &ref, &want);
        EXPECT_EQ(got, want) << q;
        EXPECT_EQ(ref.contained, want_in) << q;
        EXPECT_EQ(ref.overlapped, want_out) << q;
      }
    }
    EXPECT_GT(contained, 0u);
    EXPECT_GT(overlapped, 0u);
  }
}

// The tight box over the entries' boxes: the tree's root MBR.
Rect EntriesMbr(const std::vector<RTreeEntry>& entries, uint32_t dims) {
  Rect mbr = Rect::MakeEmpty(dims);
  for (const RTreeEntry& e : entries) mbr.ExpandToInclude(e.box);
  return mbr;
}

// Search, and SearchSupported at several thresholds, return the brute-force
// contained/overlapped split (Rect::Intersects, Rect::Contains) and the
// SearchStats of ReferenceDescent, on both packers.
void ExpectMatchesReference(const std::vector<RTreeEntry>& entries,
                            uint32_t dims, const Rect& query,
                            const std::string& context) {
  for (const RTree& tree :
       {BulkLoadSTR(dims, entries), BulkLoadPacked(dims, entries)}) {
    ASSERT_TRUE(tree.CheckInvariants()) << context;
    for (std::optional<uint32_t> min_count :
         {std::optional<uint32_t>(), std::optional<uint32_t>(0),
          std::optional<uint32_t>(400), std::optional<uint32_t>(1000)}) {
      const std::string where =
          context + " min_count=" +
          (min_count.has_value() ? std::to_string(*min_count) : "none");
      Hits want;
      for (const RTreeEntry& e : entries) {
        if (min_count.has_value() && e.count < *min_count) continue;
        if (!query.Intersects(e.box)) continue;
        (query.Contains(e.box) ? want.contained : want.overlapped)
            .insert(e.id);
      }
      RTree::SearchStats got_stats;
      const Hits got = SearchHits(tree, query, min_count, &got_stats);
      EXPECT_EQ(got.contained, want.contained) << where;
      EXPECT_EQ(got.overlapped, want.overlapped) << where;
      Hits ref;
      RTree::SearchStats ref_stats;
      ReferenceDescent(tree, tree.root(), query, min_count, &ref,
                       &ref_stats);
      EXPECT_EQ(got_stats, ref_stats) << where;
    }
  }
}

// A query that covers the root MBR on every dimension (exactly, or reaching
// past it) has no active dimension: every entry is reported as contained.
TEST(RTreeTest, QueryCoveringRootMbrReportsEveryEntryContained) {
  const uint32_t dims = 4;
  const auto entries = RandomEntries(31, 700, dims, 30, 6);
  const Rect mbr = EntriesMbr(entries, dims);
  Rect wide = Rect::MakeEmpty(dims);
  for (uint32_t d = 0; d < dims; ++d) wide.SetInterval(d, 0, 200);
  for (const Rect& query : {mbr, wide}) {
    ASSERT_TRUE(NarrowedDims(query, mbr).empty());
    const Hits hits = SearchHits(BulkLoadSTR(dims, entries), query);
    EXPECT_EQ(hits.contained.size(), entries.size());
    EXPECT_TRUE(hits.overlapped.empty());
    ExpectMatchesReference(entries, dims, query, query.ToString());
  }
}

// A query that reaches past the root MBR on one side of a dimension and
// cuts into it on the other: that dimension stays active.
TEST(RTreeTest, QueryPastRootMbrOnOneSide) {
  const uint32_t dims = 3;
  auto entries = RandomEntries(32, 500, dims, 30, 6);
  for (RTreeEntry& e : entries) {  // leave room below the MBR
    for (uint32_t d = 0; d < dims; ++d) {
      e.box.SetInterval(d, e.box.lo(d) + 10, e.box.hi(d) + 10);
    }
  }
  const Rect mbr = EntriesMbr(entries, dims);
  for (uint32_t d = 0; d < dims; ++d) {
    Rect low = mbr;  // past the low side, narrowed on the high one
    low.SetInterval(d, 0, static_cast<ValueId>(mbr.lo(d) + 12));
    Rect high = mbr;  // narrowed on the low side, past the high one
    high.SetInterval(d, static_cast<ValueId>(mbr.hi(d) - 12), 500);
    for (const Rect& query : {low, high}) {
      ASSERT_EQ(NarrowedDims(query, mbr), std::vector<uint32_t>({d}));
      ExpectMatchesReference(entries, dims, query, query.ToString());
    }
  }
}

// A dimension narrowed to one point, alone and beside a second narrowing.
TEST(RTreeTest, QueryNarrowedToOnePoint) {
  const uint32_t dims = 5;
  const auto entries = RandomEntries(33, 900, dims, 12, 4);
  Rng rng(34);
  for (int q = 0; q < 12; ++q) {
    Rect query = EntriesMbr(entries, dims);
    const auto d = static_cast<uint32_t>(rng.Uniform(dims));
    const auto v = static_cast<ValueId>(rng.Uniform(12));
    query.SetInterval(d, v, v);
    if (q % 2 == 1) {
      const auto e = static_cast<uint32_t>((d + 1) % dims);
      query.SetInterval(e, 2, 9);
    }
    ExpectMatchesReference(entries, dims, query, query.ToString());
  }
}

// The cold-mine shape: a 41-dimension tree whose entries all span the last
// (region) axis, and queries narrowing that axis, alone or with one more
// dimension. Every entry overlaps a region-only query; none lies inside.
TEST(RTreeTest, EntriesSpanningOneAxis) {
  const uint32_t dims = 41;
  const uint32_t axis = dims - 1;
  auto entries = RandomEntries(35, 2000, dims, 6, 6);
  for (RTreeEntry& e : entries) e.box.SetInterval(axis, 0, 29);
  Rect query = EntriesMbr(entries, dims);
  query.SetInterval(axis, 10, 19);
  const Hits hits = SearchHits(BulkLoadSTR(dims, entries), query);
  EXPECT_TRUE(hits.contained.empty());
  EXPECT_EQ(hits.overlapped.size(), entries.size());
  ExpectMatchesReference(entries, dims, query, "region only");
  query.SetInterval(axis, 7, 7);
  ExpectMatchesReference(entries, dims, query, "region point");
  query.SetInterval(3, 1, 2);
  ExpectMatchesReference(entries, dims, query, "region and attribute 3");
}

// An entry box that is empty in one dimension (lo > hi) never matches: not
// when that dimension is active, nor when the query tests only another
// dimension or none at all. MIP boxes are never empty, but the packers
// accept such a box and keep the tree's invariants.
TEST(RTreeTest, PartlyEmptyEntryNeverMatches) {
  const uint32_t dims = 3;
  auto entries = RandomEntries(36, 400, dims, 20, 5);
  std::set<uint32_t> empty_ids;
  for (RTreeEntry& e : entries) {
    if (e.id % 7 != 0) continue;
    const uint32_t d = e.id % dims;
    e.box.SetInterval(d, static_cast<ValueId>(e.box.hi(d) + 1), e.box.lo(d));
    empty_ids.insert(e.id);
  }
  Rect all = Rect::MakeEmpty(dims);
  for (uint32_t d = 0; d < dims; ++d) all.SetInterval(d, 0, 100);
  std::vector<Rect> queries = {all};
  for (uint32_t d = 0; d < dims; ++d) {
    Rect narrowed = all;
    narrowed.SetInterval(d, 4, 15);
    queries.push_back(narrowed);
  }
  for (const Rect& query : queries) {
    for (const RTree& tree :
         {BulkLoadSTR(dims, entries), BulkLoadPacked(dims, entries)}) {
      for (uint32_t id : SearchHits(tree, query, 0).All()) {
        EXPECT_FALSE(empty_ids.contains(id)) << id << " " << query.ToString();
      }
    }
    ExpectMatchesReference(entries, dims, query, query.ToString());
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
