#include "rtree/rtree.h"

#include <algorithm>
#include <cassert>

namespace colarm {

RTree::RTree(uint32_t dims, Options options) : dims_(dims), options_(options) {
  assert(options_.min_entries >= 1);
  assert(options_.min_entries <= options_.max_entries / 2);
  root_ = NewNode(/*leaf=*/true);
}

uint32_t RTree::NewNode(bool leaf) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[id].leaf = leaf;
  nodes_[id].mbr = Rect::MakeEmpty(dims_);
  return id;
}

void RTree::AddToNode(uint32_t node_id, const Rect& box, uint32_t id,
                      uint32_t count) {
  Node& node = nodes_[node_id];
  node.boxes.push_back(box);
  node.ids.push_back(id);
  node.counts.push_back(count);
  node.mbr.ExpandToInclude(box);
  node.max_count = std::max(node.max_count, count);
}

void RTree::SearchImpl(uint32_t node_id, const Rect& query, uint32_t min_count,
                       bool use_support, const Visitor& visitor,
                       SearchStats* stats) const {
  const Node& node = nodes_[node_id];
  if (stats != nullptr) ++stats->nodes_visited;
  for (uint32_t i = 0; i < node.fanout(); ++i) {
    if (stats != nullptr) ++stats->boxes_checked;
    if (use_support && node.counts[i] < min_count) {
      if (stats != nullptr) ++stats->entries_pruned_by_support;
      continue;
    }
    if (!query.Intersects(node.boxes[i])) continue;
    if (node.leaf) {
      RTreeEntry entry{node.boxes[i], node.ids[i], node.counts[i]};
      visitor(entry, query.Contains(node.boxes[i]));
    } else {
      SearchImpl(node.ids[i], query, min_count, use_support, visitor, stats);
    }
  }
}

void RTree::Search(const Rect& query, const Visitor& visitor,
                   SearchStats* stats) const {
  SearchImpl(root_, query, 0, /*use_support=*/false, visitor, stats);
}

void RTree::SearchSupported(const Rect& query, uint32_t min_count,
                            const Visitor& visitor,
                            SearchStats* stats) const {
  SearchImpl(root_, query, min_count, /*use_support=*/true, visitor, stats);
}

void RTree::ForEachNode(const NodeVisitor& visitor) const {
  struct Item {
    uint32_t node;
    uint32_t level;
  };
  std::vector<Item> stack = {{root_, 0}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Node& node = nodes_[item.node];
    visitor(item.level, node.mbr, node.leaf, node.fanout());
    if (!node.leaf) {
      for (uint32_t child : node.ids) {
        stack.push_back({child, item.level + 1});
      }
    }
  }
}

uint32_t RTree::NodeHeight(uint32_t node_id) const {
  uint32_t h = 1;
  uint32_t cur = node_id;
  while (!nodes_[cur].leaf) {
    ++h;
    cur = nodes_[cur].ids[0];
  }
  return h;
}

bool RTree::CheckNode(uint32_t node_id, uint32_t depth) const {
  const Node& node = nodes_[node_id];
  if (node_id != root_ && node.fanout() < options_.min_entries) return false;
  if (node.fanout() > options_.max_entries) return false;

  Rect expected = Rect::MakeEmpty(dims_);
  uint32_t expected_count = 0;
  for (uint32_t i = 0; i < node.fanout(); ++i) {
    expected.ExpandToInclude(node.boxes[i]);
    expected_count = std::max(expected_count, node.counts[i]);
    if (!node.leaf) {
      const Node& child = nodes_[node.ids[i]];
      if (node.boxes[i] != child.mbr) return false;
      if (node.counts[i] != child.max_count) return false;
      if (!CheckNode(node.ids[i], depth + 1)) return false;
    }
  }
  if (node.fanout() > 0 &&
      (expected != node.mbr || expected_count != node.max_count)) {
    return false;
  }
  // All leaves must sit at the same depth.
  if (node.leaf && depth + 1 != height_) return false;
  return true;
}

bool RTree::CheckInvariants() const {
  if (size_ == 0) {
    return nodes_[root_].leaf && nodes_[root_].fanout() == 0;
  }
  return CheckNode(root_, 0);
}

}  // namespace colarm
