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
  nodes_.push_back({leaf, static_cast<uint32_t>(slot_ids_.size()), 0});
  return id;
}

void RTree::AddSlot(const Rect& box, uint32_t id, uint32_t count) {
  for (uint32_t d = 0; d < dims_; ++d) bounds_.push_back(box.lo(d));
  for (uint32_t d = 0; d < dims_; ++d) bounds_.push_back(box.hi(d));
  slot_ids_.push_back(id);
  slot_counts_.push_back(count);
  ++nodes_.back().fanout;
}

Rect RTree::SlotBox(uint32_t slot) const {
  Rect box = Rect::MakeEmpty(dims_);
  for (uint32_t d = 0; d < dims_; ++d) {
    box.SetInterval(d, SlotLo(slot)[d], SlotHi(slot)[d]);
  }
  return box;
}

Rect RTree::NodeMbr(uint32_t node_id) const {
  const NodeView& node = nodes_[node_id];
  Rect mbr = Rect::MakeEmpty(dims_);
  for (uint32_t i = 0; i < node.fanout; ++i) {
    mbr.ExpandToInclude(SlotBox(node.first_slot + i));
  }
  return mbr;
}

uint32_t RTree::NodeMaxCount(uint32_t node_id) const {
  const NodeView& node = nodes_[node_id];
  uint32_t max_count = 0;
  for (uint32_t i = 0; i < node.fanout; ++i) {
    max_count = std::max(max_count, slot_counts_[node.first_slot + i]);
  }
  return max_count;
}

namespace {

// Box intersection over flat bounds: in every dimension the overlap
// min(hi) - max(lo) is non-negative. The same test rejects a slot box that
// is empty in some dimension (lo > hi); the query's emptiness is settled
// once, before the descent. The differences are OR-ed into one sign bit
// with no branch, eight dimensions at a time and then the rest: the
// blocks' constant trip count lets GCC's -O2 cost model, which leaves
// loops of run-time length scalar, run them in vector lanes.
bool Overlaps(const ValueId* lo, const ValueId* hi, const ValueId* query_lo,
              const ValueId* query_hi, uint32_t dims) {
  int32_t overlap = 0;
  uint32_t d = 0;
  for (; d + 8 <= dims; d += 8) {
    for (uint32_t k = d; k < d + 8; ++k) {
      overlap |= int32_t{std::min(hi[k], query_hi[k])} -
                 int32_t{std::max(lo[k], query_lo[k])};
    }
  }
  for (; d < dims; ++d) {
    overlap |= int32_t{std::min(hi[d], query_hi[d])} -
               int32_t{std::max(lo[d], query_lo[d])};
  }
  return overlap >= 0;
}

// The query box contains the slot box (called only on overlapping slots,
// which are non-empty): both margins are non-negative in every dimension.
// Blocked like Overlaps.
bool Within(const ValueId* lo, const ValueId* hi, const ValueId* query_lo,
            const ValueId* query_hi, uint32_t dims) {
  int32_t margin = 0;
  uint32_t d = 0;
  for (; d + 8 <= dims; d += 8) {
    for (uint32_t k = d; k < d + 8; ++k) {
      margin |= (int32_t{lo[k]} - int32_t{query_lo[k]}) |
                (int32_t{query_hi[k]} - int32_t{hi[k]});
    }
  }
  for (; d < dims; ++d) {
    margin |= (int32_t{lo[d]} - int32_t{query_lo[d]}) |
              (int32_t{query_hi[d]} - int32_t{hi[d]});
  }
  return margin >= 0;
}

}  // namespace

template <bool kSupported>
void RTree::SearchImpl(uint32_t node_id, const ValueId* query_lo,
                       const ValueId* query_hi, uint32_t min_count,
                       const Visitor& visitor, SearchStats* stats) const {
  const NodeView& node = nodes_[node_id];
  ++stats->nodes_visited;
  stats->boxes_checked += node.fanout;
  const uint32_t end = node.first_slot + node.fanout;
  for (uint32_t slot = node.first_slot; slot < end; ++slot) {
    if (kSupported && slot_counts_[slot] < min_count) {
      ++stats->entries_pruned_by_support;
      continue;
    }
    if (!Overlaps(SlotLo(slot), SlotHi(slot), query_lo, query_hi, dims_)) {
      continue;
    }
    if (node.leaf) {
      visitor(slot_ids_[slot], slot_counts_[slot],
              Within(SlotLo(slot), SlotHi(slot), query_lo, query_hi, dims_));
    } else {
      SearchImpl<kSupported>(slot_ids_[slot], query_lo, query_hi, min_count,
                             visitor, stats);
    }
  }
}

void RTree::RunSearch(const Rect& query, bool supported, uint32_t min_count,
                      const Visitor& visitor, SearchStats* stats) const {
  // An empty query intersects nothing: the root's slots are still checked
  // (and support-pruned) and nothing below it is entered. Its bounds are
  // laid out as one all-empty interval per dimension, which every slot
  // fails.
  std::vector<ValueId> flat(size_t{2} * dims_);
  const bool empty = query.empty();
  for (uint32_t d = 0; d < dims_; ++d) {
    flat[d] = empty ? 1 : query.lo(d);
    flat[dims_ + d] = empty ? 0 : query.hi(d);
  }
  SearchStats local;
  if (supported) {
    SearchImpl<true>(root_, flat.data(), flat.data() + dims_, min_count,
                     visitor, &local);
  } else {
    SearchImpl<false>(root_, flat.data(), flat.data() + dims_, 0, visitor,
                      &local);
  }
  if (stats != nullptr) {
    stats->nodes_visited += local.nodes_visited;
    stats->boxes_checked += local.boxes_checked;
    stats->entries_pruned_by_support += local.entries_pruned_by_support;
  }
}

void RTree::Search(const Rect& query, const Visitor& visitor,
                   SearchStats* stats) const {
  RunSearch(query, /*supported=*/false, 0, visitor, stats);
}

void RTree::SearchSupported(const Rect& query, uint32_t min_count,
                            const Visitor& visitor,
                            SearchStats* stats) const {
  RunSearch(query, /*supported=*/true, min_count, visitor, stats);
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
    const NodeView& node = nodes_[item.node];
    visitor(item.level, NodeMbr(item.node), node.leaf, node.fanout);
    if (!node.leaf) {
      for (uint32_t i = 0; i < node.fanout; ++i) {
        stack.push_back({slot_ids_[node.first_slot + i], item.level + 1});
      }
    }
  }
}

bool RTree::CheckNode(uint32_t node_id, uint32_t depth) const {
  const NodeView& node = nodes_[node_id];
  if (node_id != root_ && node.fanout < options_.min_entries) return false;
  if (node.fanout > options_.max_entries) return false;
  if (!node.leaf) {
    for (uint32_t i = 0; i < node.fanout; ++i) {
      const uint32_t slot = node.first_slot + i;
      const uint32_t child = slot_ids_[slot];
      if (SlotBox(slot) != NodeMbr(child)) return false;
      if (slot_counts_[slot] != NodeMaxCount(child)) return false;
      if (!CheckNode(child, depth + 1)) return false;
    }
  }
  // All leaves must sit at the same depth.
  if (node.leaf && depth + 1 != height_) return false;
  return true;
}

bool RTree::CheckInvariants() const {
  if (size_ == 0) {
    return nodes_[root_].leaf && nodes_[root_].fanout == 0;
  }
  return CheckNode(root_, 0);
}

}  // namespace colarm
