#include "mip/index_stats.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"
#include "mip/mip_index.h"

namespace colarm {

double IndexStats::FractionWithCountAtLeast(uint32_t count) const {
  if (sorted_counts.empty()) return 0.0;
  auto it =
      std::lower_bound(sorted_counts.begin(), sorted_counts.end(), count);
  size_t passing = static_cast<size_t>(sorted_counts.end() - it);
  return static_cast<double>(passing) / sorted_counts.size();
}

IndexStats::WalkSize IndexStats::WalkAtLeast(uint32_t count) const {
  // Rows with prefix_counts >= count form a prefix of the descending rows.
  const auto rows = static_cast<size_t>(
      std::upper_bound(prefix_counts.begin(), prefix_counts.end(), count,
                       std::greater<>()) -
      prefix_counts.begin());
  if (rows == 0) return {};
  return {static_cast<double>(walk_children[rows - 1]),
          static_cast<double>(walk_parent_records[rows - 1])};
}

std::string IndexStats::ToString() const {
  std::string out = StrFormat(
      "MIP-index: %u MIPs over %u records x %u attributes\n"
      "  primary count: %u, R-tree height: %u\n"
      "  itemset length: avg %.2f, max %u\n"
      "  avg MIP support fraction: %.3f\n",
      num_mips, num_records, num_attributes, primary_count, rtree_height,
      avg_itemset_length, max_itemset_length, avg_support_fraction);
  for (size_t level = 0; level < levels.size(); ++level) {
    double mean_extent = 0.0;
    for (double e : levels[level].avg_extent) mean_extent += e;
    if (!levels[level].avg_extent.empty()) {
      mean_extent /= static_cast<double>(levels[level].avg_extent.size());
    }
    out += StrFormat("  level %zu: %u nodes, mean extent %.3f\n", level,
                     levels[level].num_nodes, mean_extent);
  }
  return out;
}

namespace {

// Fills the prefix-support histogram from one unpruned depth-first pass
// over the IT-tree: each inner node's global count is its parent's records
// ANDed with its item's bitmap. Leaves have no children, so they need no
// count.
void ComputeWalkStats(const MipIndex& index, IndexStats* stats) {
  const ITTree& tree = index.ittree();
  const auto nodes = tree.depth_first();
  if (nodes.empty()) return;
  const uint32_t m = index.dataset().num_records();
  std::vector<Bitmap> levels(tree.max_depth() + 1);
  levels[0] = Bitmap(m);
  levels[0].Fill();
  std::vector<std::pair<uint32_t, uint32_t>> rows;  // (count, children)
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    const ITTree::DepthFirstNode& node = nodes[i];
    if (node.subtree_end == i + 1) continue;
    uint32_t count = m;
    if (node.depth > 0) {
      Bitmap& out = levels[node.depth];
      if (out.size() == 0) out = Bitmap(m);
      Bitmap::AndInto(levels[node.depth - 1],
                      index.vertical().item(node.item), &out);
      count = static_cast<uint32_t>(out.Count());
    }
    uint32_t children = 0;
    for (uint32_t j = i + 1; j < node.subtree_end; j = nodes[j].subtree_end) {
      ++children;
    }
    rows.emplace_back(count, children);
  }
  std::sort(rows.begin(), rows.end(), std::greater<>());
  uint64_t children = 0;
  uint64_t parent_records = 0;
  for (const auto& [count, node_children] : rows) {
    children += node_children;
    parent_records += uint64_t{node_children} * count;
    stats->prefix_counts.push_back(count);
    stats->walk_children.push_back(children);
    stats->walk_parent_records.push_back(parent_records);
  }
}

}  // namespace

IndexStats ComputeIndexStats(const MipIndex& index) {
  IndexStats stats;
  const Dataset& dataset = index.dataset();
  const Schema& schema = dataset.schema();
  const uint32_t n = schema.num_attributes();

  stats.num_records = dataset.num_records();
  stats.num_attributes = n;
  stats.num_mips = index.num_mips();
  stats.primary_count = index.primary_count();
  stats.rtree_height = index.rtree().height();
  stats.rtree_fanout = index.rtree().options().max_entries;

  // Per-level node counts and average normalized extents.
  stats.levels.assign(stats.rtree_height, RTreeLevelStats{});
  for (auto& level : stats.levels) level.avg_extent.assign(n, 0.0);
  index.rtree().ForEachNode(
      [&](uint32_t level, const Rect& mbr, bool /*leaf*/, uint32_t /*fanout*/) {
        RTreeLevelStats& ls = stats.levels[level];
        ++ls.num_nodes;
        for (uint32_t d = 0; d < n; ++d) {
          ls.avg_extent[d] +=
              mbr.NormalizedExtent(d, schema.attribute(d).domain_size());
        }
      });
  for (auto& level : stats.levels) {
    if (level.num_nodes > 0) {
      for (double& e : level.avg_extent) e /= level.num_nodes;
    }
  }

  // MIP-level aggregates.
  stats.mip_avg_extent.assign(n, 0.0);
  stats.sorted_counts.reserve(index.num_mips());
  uint64_t length_sum = 0;
  for (const Mip& mip : index.mips()) {
    for (uint32_t d = 0; d < n; ++d) {
      stats.mip_avg_extent[d] +=
          mip.bbox.NormalizedExtent(d, schema.attribute(d).domain_size());
    }
    const auto len = static_cast<uint32_t>(mip.items.size());
    length_sum += len;
    stats.max_itemset_length = std::max(stats.max_itemset_length, len);
    if (stats.length_histogram.size() <= len) {
      stats.length_histogram.resize(len + 1, 0);
    }
    ++stats.length_histogram[len];
    stats.sorted_counts.push_back(mip.global_count);
    stats.avg_support_fraction +=
        static_cast<double>(mip.global_count) / stats.num_records;
  }
  if (index.num_mips() > 0) {
    for (double& e : stats.mip_avg_extent) e /= index.num_mips();
    stats.avg_itemset_length =
        static_cast<double>(length_sum) / index.num_mips();
    stats.avg_support_fraction /= index.num_mips();
  }
  std::sort(stats.sorted_counts.begin(), stats.sorted_counts.end());
  ComputeWalkStats(index, &stats);
  return stats;
}

}  // namespace colarm
