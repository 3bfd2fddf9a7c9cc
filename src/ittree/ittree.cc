#include "ittree/ittree.h"

#include <algorithm>
#include <cassert>

namespace colarm {

uint32_t ITTree::Insert(Itemset items, uint32_t count) {
  uint32_t node_id = 0;
  for (ItemId item : items) {
    Node& node = nodes_[node_id];
    auto it = std::lower_bound(
        node.children.begin(), node.children.end(), item,
        [](const auto& child, ItemId value) { return child.first < value; });
    if (it != node.children.end() && it->first == item) {
      node_id = it->second;
    } else {
      uint32_t child_id = static_cast<uint32_t>(nodes_.size());
      // Note: taking `it` before emplace_back — the vector<Node> grow can
      // invalidate `node`, so re-resolve after allocation.
      size_t offset = static_cast<size_t>(it - node.children.begin());
      nodes_.emplace_back();
      Node& reloaded = nodes_[node_id];
      reloaded.children.insert(reloaded.children.begin() + offset,
                               {item, child_id});
      node_id = child_id;
    }
  }
  uint32_t id = static_cast<uint32_t>(entries_.size());
  nodes_[node_id].entry = id;
  entries_.push_back({std::move(items), count});
  return id;
}

std::optional<uint32_t> ITTree::Find(std::span<const ItemId> items) const {
  uint32_t node_id = 0;
  for (ItemId item : items) {
    const Node& node = nodes_[node_id];
    auto it = std::lower_bound(
        node.children.begin(), node.children.end(), item,
        [](const auto& child, ItemId value) { return child.first < value; });
    if (it == node.children.end() || it->first != item) return std::nullopt;
    node_id = it->second;
  }
  return nodes_[node_id].entry;
}

void ITTree::SupersetWalk(
    uint32_t node_id, std::span<const ItemId> items, size_t next,
    const std::function<void(uint32_t id)>& visitor) const {
  const Node& node = nodes_[node_id];
  if (next == items.size()) {
    // All required items consumed: every entry below (and here) qualifies.
    if (node.entry.has_value()) visitor(*node.entry);
    for (const auto& [item, child] : node.children) {
      SupersetWalk(child, items, next, visitor);
    }
    return;
  }
  const ItemId target = items[next];
  for (const auto& [item, child] : node.children) {
    if (item < target) {
      // The branch may still contain `target` deeper down.
      SupersetWalk(child, items, next, visitor);
    } else if (item == target) {
      SupersetWalk(child, items, next + 1, visitor);
    } else {
      break;  // paths are item-sorted: target can no longer appear
    }
  }
}

uint32_t ITTree::MaxSupersetCount(std::span<const ItemId> items) const {
  uint32_t best = 0;
  SupersetWalk(0, items, 0, [this, &best](uint32_t id) {
    best = std::max(best, entries_[id].count);
  });
  return best;
}

void ITTree::ForEachSuperset(
    std::span<const ItemId> items,
    const std::function<void(uint32_t id)>& visitor) const {
  SupersetWalk(0, items, 0, visitor);
}

void ITTree::SubsetWalk(
    uint32_t node_id, std::span<const ItemId> items, size_t next,
    const std::function<void(uint32_t id)>& visitor) const {
  const Node& node = nodes_[node_id];
  if (node.entry.has_value()) visitor(*node.entry);
  if (next == items.size()) return;
  // Descend only along children whose item occurs in the remaining suffix
  // of `items`; both lists are sorted, so advance in lockstep.
  size_t pos = next;
  for (const auto& [item, child] : node.children) {
    while (pos < items.size() && items[pos] < item) ++pos;
    if (pos == items.size()) break;
    if (items[pos] == item) {
      SubsetWalk(child, items, pos + 1, visitor);
    }
  }
}

void ITTree::ForEachSubsetOf(
    std::span<const ItemId> items,
    const std::function<void(uint32_t id)>& visitor) const {
  SubsetWalk(0, items, 0, visitor);
}

void ITTree::NumberDepthFirst() {
  depth_first_.clear();
  depth_first_.reserve(nodes_.size());
  max_depth_ = 0;
  uint32_t next_entry = 0;
  // Explicit stack of open nodes (trie node, its layout position, its next
  // child); a node's subtree closes (its end and entry range are written)
  // when the stack unwinds past it. A node's depth is its stack depth.
  struct Frame {
    uint32_t node;
    uint32_t position;
    size_t next_child;
  };
  auto open = [&](uint32_t node_id, ItemId item, uint32_t depth) {
    DepthFirstNode out;
    out.item = item;
    out.depth = depth;
    out.entry_begin = next_entry;
    if (nodes_[node_id].entry.has_value()) {
      out.entry = *nodes_[node_id].entry;
      assert(out.entry == next_entry && "entries not in itemset order");
      ++next_entry;
    }
    max_depth_ = std::max(max_depth_, depth);
    depth_first_.push_back(out);
    return Frame{node_id, static_cast<uint32_t>(depth_first_.size() - 1), 0};
  };
  std::vector<Frame> stack = {open(0, 0, 0)};
  while (!stack.empty()) {
    Frame& top = stack.back();
    const Node& node = nodes_[top.node];
    if (top.next_child == node.children.size()) {
      DepthFirstNode& done = depth_first_[top.position];
      done.subtree_end = static_cast<uint32_t>(depth_first_.size());
      done.entry_end = next_entry;
      stack.pop_back();
      continue;
    }
    const auto [item, child] = node.children[top.next_child++];
    stack.push_back(open(child, item, static_cast<uint32_t>(stack.size())));
  }
}

void ITTree::ForEach(const std::function<void(uint32_t id)>& visitor) const {
  for (uint32_t id = 0; id < entries_.size(); ++id) visitor(id);
}

}  // namespace colarm
