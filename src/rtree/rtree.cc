#include "rtree/rtree.h"

#include <algorithm>
#include <cassert>
#include <limits>

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

void RTree::RecomputeNode(uint32_t node_id) {
  Node& node = nodes_[node_id];
  node.mbr = Rect::MakeEmpty(dims_);
  node.max_count = 0;
  for (uint32_t i = 0; i < node.fanout(); ++i) {
    node.mbr.ExpandToInclude(node.boxes[i]);
    node.max_count = std::max(node.max_count, node.counts[i]);
  }
}

uint32_t RTree::ChooseLeaf(const Rect& box,
                           std::vector<uint32_t>* path) const {
  uint32_t node_id = root_;
  while (true) {
    path->push_back(node_id);
    const Node& node = nodes_[node_id];
    if (node.leaf) return node_id;
    // Least log-volume enlargement; ties by smaller resulting volume.
    uint32_t best = 0;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_volume = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < node.fanout(); ++i) {
      Rect merged = node.boxes[i];
      merged.ExpandToInclude(box);
      double before = node.boxes[i].LogVolume();
      double after = merged.LogVolume();
      double enlargement = after - before;
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && after < best_volume)) {
        best = i;
        best_enlargement = enlargement;
        best_volume = after;
      }
    }
    node_id = node.ids[best];
  }
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

void RTree::AdjustPath(const std::vector<uint32_t>& path) {
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    uint32_t node_id = *it;
    RecomputeNode(node_id);
    // Refresh this node's slot in its parent (if any).
    if (it + 1 != path.rend()) {
      uint32_t parent_id = *(it + 1);
      Node& parent = nodes_[parent_id];
      for (uint32_t i = 0; i < parent.fanout(); ++i) {
        if (parent.ids[i] == node_id) {
          parent.boxes[i] = nodes_[node_id].mbr;
          parent.counts[i] = nodes_[node_id].max_count;
          break;
        }
      }
    }
  }
}

namespace {

// Quadratic-split bookkeeping: which group each slot lands in.
struct SplitAssignment {
  std::vector<int> group;  // -1 unassigned, 0 or 1
  Rect mbr[2];
  uint32_t sizes[2] = {0, 0};
};

}  // namespace

void RTree::SplitNode(uint32_t node_id, std::vector<uint32_t>& path) {
  Node& node = nodes_[node_id];
  const uint32_t n = node.fanout();

  // PickSeeds: the pair wasting the most volume if grouped together.
  uint32_t seed_a = 0;
  uint32_t seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      Rect merged = node.boxes[i];
      merged.ExpandToInclude(node.boxes[j]);
      double waste = merged.LogVolume() -
                     std::max(node.boxes[i].LogVolume(),
                              node.boxes[j].LogVolume());
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  SplitAssignment split;
  split.group.assign(n, -1);
  split.group[seed_a] = 0;
  split.group[seed_b] = 1;
  split.mbr[0] = node.boxes[seed_a];
  split.mbr[1] = node.boxes[seed_b];
  split.sizes[0] = split.sizes[1] = 1;

  uint32_t remaining = n - 2;
  while (remaining > 0) {
    // Force-assign when one group must absorb everything left to reach the
    // minimum fill.
    for (int g = 0; g < 2; ++g) {
      if (split.sizes[g] + remaining == options_.min_entries) {
        for (uint32_t i = 0; i < n; ++i) {
          if (split.group[i] == -1) {
            split.group[i] = g;
            split.mbr[g].ExpandToInclude(node.boxes[i]);
            ++split.sizes[g];
          }
        }
        remaining = 0;
        break;
      }
    }
    if (remaining == 0) break;

    // PickNext: the unassigned slot with the largest preference gap.
    uint32_t pick = 0;
    double best_gap = -1.0;
    double d0_pick = 0.0;
    double d1_pick = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      if (split.group[i] != -1) continue;
      Rect m0 = split.mbr[0];
      m0.ExpandToInclude(node.boxes[i]);
      Rect m1 = split.mbr[1];
      m1.ExpandToInclude(node.boxes[i]);
      double d0 = m0.LogVolume() - split.mbr[0].LogVolume();
      double d1 = m1.LogVolume() - split.mbr[1].LogVolume();
      double gap = std::abs(d0 - d1);
      if (gap > best_gap) {
        best_gap = gap;
        pick = i;
        d0_pick = d0;
        d1_pick = d1;
      }
    }
    int g;
    if (d0_pick != d1_pick) {
      g = d0_pick < d1_pick ? 0 : 1;
    } else {
      g = split.sizes[0] <= split.sizes[1] ? 0 : 1;
    }
    split.group[pick] = g;
    split.mbr[g].ExpandToInclude(node.boxes[pick]);
    ++split.sizes[g];
    --remaining;
  }

  // Materialize the sibling (group 1); keep group 0 in place.
  const bool was_leaf = node.leaf;
  uint32_t sibling_id = NewNode(was_leaf);
  // NewNode may reallocate nodes_, so re-take the reference.
  Node& self = nodes_[node_id];
  Node& sibling = nodes_[sibling_id];
  std::vector<Rect> keep_boxes;
  std::vector<uint32_t> keep_ids;
  std::vector<uint32_t> keep_counts;
  for (uint32_t i = 0; i < n; ++i) {
    if (split.group[i] == 0) {
      keep_boxes.push_back(self.boxes[i]);
      keep_ids.push_back(self.ids[i]);
      keep_counts.push_back(self.counts[i]);
    } else {
      sibling.boxes.push_back(self.boxes[i]);
      sibling.ids.push_back(self.ids[i]);
      sibling.counts.push_back(self.counts[i]);
    }
  }
  self.boxes = std::move(keep_boxes);
  self.ids = std::move(keep_ids);
  self.counts = std::move(keep_counts);
  RecomputeNode(node_id);
  RecomputeNode(sibling_id);

  // Hook the sibling into the parent, growing a new root if needed.
  if (node_id == root_) {
    uint32_t new_root = NewNode(/*leaf=*/false);
    Node& root = nodes_[new_root];
    root.boxes = {nodes_[node_id].mbr, nodes_[sibling_id].mbr};
    root.ids = {node_id, sibling_id};
    root.counts = {nodes_[node_id].max_count, nodes_[sibling_id].max_count};
    RecomputeNode(new_root);
    root_ = new_root;
    ++height_;
    path.insert(path.begin(), new_root);
    return;
  }

  // Parent is the element before node_id in the path.
  auto it = std::find(path.begin(), path.end(), node_id);
  assert(it != path.begin() && it != path.end());
  uint32_t parent_id = *(it - 1);
  // Refresh the split node's (now smaller) slot in the parent right away:
  // if the parent itself splits next, the slot may migrate to the parent's
  // sibling, out of AdjustPath's reach.
  Node& parent = nodes_[parent_id];
  for (uint32_t i = 0; i < parent.fanout(); ++i) {
    if (parent.ids[i] == node_id) {
      parent.boxes[i] = nodes_[node_id].mbr;
      parent.counts[i] = nodes_[node_id].max_count;
      break;
    }
  }
  AddToNode(parent_id, nodes_[sibling_id].mbr, sibling_id,
            nodes_[sibling_id].max_count);
  if (nodes_[parent_id].fanout() > options_.max_entries) {
    SplitNode(parent_id, path);
  }
}

void RTree::Insert(const RTreeEntry& entry) {
  assert(entry.box.dims() == dims_);
  std::vector<uint32_t> path;
  uint32_t leaf = ChooseLeaf(entry.box, &path);
  AddToNode(leaf, entry.box, entry.id, entry.count);
  if (nodes_[leaf].fanout() > options_.max_entries) {
    SplitNode(leaf, path);
  }
  AdjustPath(path);
  ++size_;
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
