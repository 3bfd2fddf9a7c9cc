#ifndef COLARM_MIP_INDEX_STATS_H_
#define COLARM_MIP_INDEX_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace colarm {

class MipIndex;

/// Aggregates of one R-tree level (0 = root) used by the cost model's
/// node-access estimate (Theodoridis & Sellis style, Eq. 1 of the paper).
struct RTreeLevelStats {
  uint32_t num_nodes = 0;
  /// Average normalized MBR extent per attribute at this level.
  std::vector<double> avg_extent;
};

/// Precomputed statistics of a MIP-index, gathered once offline. Together
/// with the query parameters these make every plan-cost estimate a
/// constant-time formula evaluation.
struct IndexStats {
  uint32_t num_records = 0;
  uint32_t num_attributes = 0;
  uint32_t num_mips = 0;
  uint32_t primary_count = 0;
  uint32_t rtree_height = 0;
  uint32_t rtree_fanout = 16;  // node capacity (avg work per node visit)

  std::vector<RTreeLevelStats> levels;  // levels[0] = root

  /// Average normalized bbox extent per attribute over all MIPs (the
  /// paper's D^P_avg).
  std::vector<double> mip_avg_extent;

  double avg_itemset_length = 0.0;
  uint32_t max_itemset_length = 0;
  std::vector<uint32_t> length_histogram;  // index = itemset length

  /// MIP global support counts, ascending (for pass-fraction lookups).
  std::vector<uint32_t> sorted_counts;
  double avg_support_fraction = 0.0;

  /// Fraction of MIPs whose global count is >= `count`.
  double FractionWithCountAtLeast(uint32_t count) const;

  /// The closed IT-tree's prefix-support histogram, which prices
  /// ELIMINATE's walk: one row per trie node with children (the root
  /// included), by descending global prefix count. `prefix_counts[i]` is
  /// row i's count; `walk_children[i]` and `walk_parent_records[i]` sum,
  /// over rows 0..i, the node's children and its children x its count.
  std::vector<uint32_t> prefix_counts;
  std::vector<uint64_t> walk_children;
  std::vector<uint64_t> walk_parent_records;

  /// What a walk entering every child of the prefixes with global count
  /// >= `count` does: `nodes` intersections, testing `parent_records`
  /// records of the relation in all.
  struct WalkSize {
    double nodes = 0.0;
    double parent_records = 0.0;
  };
  WalkSize WalkAtLeast(uint32_t count) const;

  std::string ToString() const;
};

IndexStats ComputeIndexStats(const MipIndex& index);

}  // namespace colarm

#endif  // COLARM_MIP_INDEX_STATS_H_
