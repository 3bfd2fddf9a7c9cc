#include "rtree/rtree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace colarm {

namespace {

// Slots per test group: a node's slots are padded to a multiple of it, and
// one dimension's bounds of a group are one run of 16 ValueIds.
constexpr uint32_t kLanes = 16;
constexpr uint16_t kPass = 0xFFFF;

// Bit s is set iff lane s passed (is kPass): an OR of each lane masked to
// its own bit, which vectorizes.
uint32_t LaneMask(const uint16_t* lanes) {
  uint16_t mask = 0;
  for (uint32_t s = 0; s < kLanes; ++s) {
    mask |= lanes[s] & static_cast<uint16_t>(1u << s);
  }
  return mask;
}

}  // namespace

// The query's bounds per dimension, the dimensions a search tests, and the
// bitmaps the leaves report to.
struct RTree::Probe {
  std::vector<ValueId> lo;
  std::vector<ValueId> hi;
  std::vector<uint32_t> active;
  uint32_t min_count = 0;
  Bitmap* contained = nullptr;
  Bitmap* overlapped = nullptr;
};

RTree::RTree(uint32_t dims, Options options) : dims_(dims), options_(options) {
  assert(options_.min_entries >= 1);
  assert(options_.min_entries <= options_.max_entries / 2);
  root_ = AddNode(/*leaf=*/true, {});
}

uint32_t RTree::Lanes(const NodeView& node) {
  return (node.fanout + kLanes - 1) / kLanes * kLanes;
}

uint32_t RTree::AddNode(bool leaf, std::span<const RTreeEntry> slots) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  const NodeView node = {leaf, static_cast<uint32_t>(slot_ids_.size()),
                         static_cast<uint32_t>(slots.size())};
  nodes_.push_back(node);
  const uint32_t lanes = Lanes(node);
  slot_ids_.resize(slot_ids_.size() + lanes, 0);
  slot_counts_.resize(slot_counts_.size() + lanes, 0);
  slot_live_.resize(slot_live_.size() + lanes, 0);
  bounds_.resize(bounds_.size() + size_t{2} * dims_ * lanes, 0);
  ValueId* lows = bounds_.data() + size_t{2} * dims_ * node.first_slot;
  ValueId* highs = lows + size_t{dims_} * lanes;
  for (uint32_t i = 0; i < node.fanout; ++i) {
    const RTreeEntry& slot = slots[i];
    bool live = true;
    for (uint32_t d = 0; d < dims_; ++d) {
      lows[d * lanes + i] = slot.box.lo(d);
      highs[d * lanes + i] = slot.box.hi(d);
      live = live && slot.box.lo(d) <= slot.box.hi(d);
    }
    slot_ids_[node.first_slot + i] = slot.id;
    slot_counts_[node.first_slot + i] = slot.count;
    slot_live_[node.first_slot + i] = live ? kPass : 0;
  }
  return id;
}

Rect RTree::SlotBox(uint32_t node_id, uint32_t i) const {
  const NodeView& node = nodes_[node_id];
  const uint32_t lanes = Lanes(node);
  const ValueId* lows = NodeBounds(node);
  const ValueId* highs = lows + size_t{dims_} * lanes;
  Rect box = Rect::MakeEmpty(dims_);
  for (uint32_t d = 0; d < dims_; ++d) {
    box.SetInterval(d, lows[d * lanes + i], highs[d * lanes + i]);
  }
  return box;
}

Rect RTree::NodeMbr(uint32_t node_id) const {
  Rect mbr = Rect::MakeEmpty(dims_);
  for (uint32_t i = 0; i < nodes_[node_id].fanout; ++i) {
    mbr.ExpandToInclude(SlotBox(node_id, i));
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

// Tests a node 16 slots at a time, one lane per slot: a lane starts as the
// slot's live flag and is AND-ed with the support test, then, for each
// active dimension, with the overlap test over that dimension's run of
// bounds (min(hi) >= max(lo), which also fails an empty interval on either
// side). The lanes' constant count lets the compiler run each run's test
// in vector registers. A leaf's hits then take the containment test over
// the same dimensions and set their ids' bits; an internal node's hits are
// entered in slot order.
template <bool kSupported>
void RTree::SearchImpl(uint32_t node_id, const Probe& probe,
                       SearchStats* stats) const {
  const NodeView& node = nodes_[node_id];
  ++stats->nodes_visited;
  stats->boxes_checked += node.fanout;
  const uint32_t lanes = Lanes(node);
  const ValueId* lows = NodeBounds(node);
  const ValueId* highs = lows + size_t{dims_} * lanes;
  for (uint32_t group = 0; group < lanes; group += kLanes) {
    const uint32_t first = node.first_slot + group;
    uint16_t pass[kLanes];
    std::copy_n(slot_live_.data() + first, kLanes, pass);
    if constexpr (kSupported) {
      const uint32_t* counts = slot_counts_.data() + first;
      const uint32_t real = std::min(kLanes, node.fanout - group);
      uint32_t kept = 0;
      for (uint32_t s = 0; s < kLanes; ++s) {
        const bool supported = counts[s] >= probe.min_count;
        pass[s] &= supported ? kPass : 0;
        kept += supported & (s < real);
      }
      stats->entries_pruned_by_support += real - kept;
      if (kept == 0) continue;
    }
    for (uint32_t d : probe.active) {
      const ValueId* lo = lows + d * lanes + group;
      const ValueId* hi = highs + d * lanes + group;
      const ValueId query_lo = probe.lo[d];
      const ValueId query_hi = probe.hi[d];
      for (uint32_t s = 0; s < kLanes; ++s) {
        pass[s] &= std::min(hi[s], query_hi) >= std::max(lo[s], query_lo)
                       ? kPass
                       : 0;
      }
    }
    uint32_t hits = LaneMask(pass);
    if (hits == 0) continue;
    if (node.leaf) {
      uint16_t inside[kLanes];
      std::fill_n(inside, kLanes, kPass);
      for (uint32_t d : probe.active) {
        const ValueId* lo = lows + d * lanes + group;
        const ValueId* hi = highs + d * lanes + group;
        const ValueId query_lo = probe.lo[d];
        const ValueId query_hi = probe.hi[d];
        for (uint32_t s = 0; s < kLanes; ++s) {
          inside[s] &= (lo[s] >= query_lo) & (hi[s] <= query_hi) ? kPass : 0;
        }
      }
      const uint32_t within = LaneMask(inside);
      for (; hits != 0; hits &= hits - 1) {
        const int s = std::countr_zero(hits);
        Bitmap* out = (within >> s) & 1u ? probe.contained : probe.overlapped;
        out->Set(slot_ids_[first + s]);
      }
    } else {
      for (; hits != 0; hits &= hits - 1) {
        SearchImpl<kSupported>(slot_ids_[first + std::countr_zero(hits)],
                               probe, stats);
      }
    }
  }
}

void RTree::RunSearch(const Rect& query, bool supported, uint32_t min_count,
                      Bitmap* contained, Bitmap* overlapped,
                      SearchStats* stats) const {
  Probe probe;
  probe.min_count = min_count;
  probe.contained = contained;
  probe.overlapped = overlapped;
  // An empty query intersects nothing: the root's slots are still checked
  // (and support-pruned) and nothing below it is entered. Its bounds are
  // laid out as one all-empty interval per dimension, every dimension is
  // active, and every slot fails.
  const bool empty = query.empty();
  probe.lo.resize(dims_);
  probe.hi.resize(dims_);
  for (uint32_t d = 0; d < dims_; ++d) {
    probe.lo[d] = empty ? 1 : query.lo(d);
    probe.hi[d] = empty ? 0 : query.hi(d);
  }
  if (empty || size_ == 0) {
    probe.active.resize(dims_);
    std::iota(probe.active.begin(), probe.active.end(), 0u);
  } else {
    probe.active = NarrowedDims(query, mbr_);
  }
  SearchStats local;
  if (supported) {
    SearchImpl<true>(root_, probe, &local);
  } else {
    SearchImpl<false>(root_, probe, &local);
  }
  if (stats != nullptr) {
    stats->nodes_visited += local.nodes_visited;
    stats->boxes_checked += local.boxes_checked;
    stats->entries_pruned_by_support += local.entries_pruned_by_support;
  }
}

void RTree::Search(const Rect& query, Bitmap* contained, Bitmap* overlapped,
                   SearchStats* stats) const {
  RunSearch(query, /*supported=*/false, 0, contained, overlapped, stats);
}

void RTree::SearchSupported(const Rect& query, uint32_t min_count,
                            Bitmap* contained, Bitmap* overlapped,
                            SearchStats* stats) const {
  RunSearch(query, /*supported=*/true, min_count, contained, overlapped,
            stats);
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
      if (SlotBox(node_id, i) != NodeMbr(child)) return false;
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
