#ifndef COLARM_RTREE_RTREE_H_
#define COLARM_RTREE_RTREE_H_

#include <functional>
#include <span>
#include <vector>

#include "bitmap/bitmap.h"
#include "rtree/rect.h"

namespace colarm {

/// One indexed object: a bounding box, the caller's id (for MIPs, the CFI
/// ordinal), and the object's global support count. The count powers the
/// paper's *Supported R-tree* filter (Section 4.3): internal nodes track
/// the maximum count below them, so SUPPORTED-SEARCH can prune whole
/// subtrees whose best-case global support cannot satisfy the query's
/// absolute minsupport.
struct RTreeEntry {
  Rect box;
  uint32_t id = 0;
  uint32_t count = 0;
};

/// n-dimensional R-tree (Guttman, SIGMOD'84) with support-aware search.
/// Trees are built only by packing (rtree/bulk_load.h: BulkLoadSTR,
/// BulkLoadPacked), which is how the MIP-index is constructed; a
/// default-constructed tree is empty.
///
/// Layout: every node's children are one contiguous run of *slots*, padded
/// to a multiple of 16 (the default fanout M), and the node's slot boxes
/// live in one dimension-major block of ValueIds: for each dimension the
/// slots' lower bounds, then for each dimension their upper bounds. One
/// dimension of a node is then one contiguous run of 16 bounds, which a
/// search tests across the slots at once. Beside the blocks, per slot, the
/// child node id (internal) or entry id (leaf), the (max) support count and
/// whether the box is non-empty (padding slots count as empty).
class RTree {
 public:
  struct Options {
    uint32_t max_entries = 16;  // node capacity M
    uint32_t min_entries = 6;   // underflow threshold m (<= M/2)

    friend bool operator==(const Options&, const Options&) = default;
  };

  /// Counters exposed to the cost model and plan statistics.
  struct SearchStats {
    uint64_t nodes_visited = 0;
    uint64_t boxes_checked = 0;
    uint64_t entries_pruned_by_support = 0;

    friend bool operator==(const SearchStats&, const SearchStats&) = default;
  };

  explicit RTree(uint32_t dims) : RTree(dims, Options()) {}
  RTree(uint32_t dims, Options options);

  uint32_t dims() const { return dims_; }
  uint32_t size() const { return size_; }
  /// Height in levels; 1 = root is a leaf. Leaves are level 0 internally.
  uint32_t height() const { return height_; }
  const Options& options() const { return options_; }

  /// Reports every entry whose box intersects `query` by setting its id's
  /// bit: in `contained` when the box lies within the query box (feeds the
  /// contained/overlapped split of SS-E-U-V), in `overlapped` otherwise.
  /// Both bitmaps must cover every entry id; they may be the same bitmap.
  ///
  /// Only the query's *active dimensions* are tested: those on which it
  /// does not cover the root's MBR (NarrowedDims). On every other
  /// dimension each slot box lies within the query, so the test cannot
  /// fail there. An empty query or an empty tree keeps every dimension
  /// active. An entry box that is empty in some dimension never matches.
  void Search(const Rect& query, Bitmap* contained, Bitmap* overlapped,
              SearchStats* stats = nullptr) const;

  /// Supported R-tree filter: like Search but skips subtrees/entries whose
  /// (max) support count is below `min_count` (Lemma 4.4 upper bound).
  void SearchSupported(const Rect& query, uint32_t min_count,
                       Bitmap* contained, Bitmap* overlapped,
                       SearchStats* stats = nullptr) const;

  /// A node as a read-only view: leaf flag and its run of slots (the
  /// first `fanout` of a run padded to a multiple of 16).
  struct NodeView {
    bool leaf = true;
    uint32_t first_slot = 0;
    uint32_t fanout = 0;
  };
  uint32_t root() const { return root_; }
  NodeView node(uint32_t node_id) const { return nodes_[node_id]; }
  /// The box of a node's `i`-th slot.
  Rect SlotBox(uint32_t node_id, uint32_t i) const;
  /// Slot `slot`'s child (or entry) id and (max) support count.
  uint32_t SlotId(uint32_t slot) const { return slot_ids_[slot]; }
  uint32_t SlotCount(uint32_t slot) const { return slot_counts_[slot]; }

  /// Level-order walk over nodes for statistics collection. `level` counts
  /// from the root (0) down to the leaves (height-1); `mbr` covers the
  /// node's slots.
  using NodeVisitor = std::function<void(uint32_t level, const Rect& mbr,
                                         bool is_leaf, uint32_t fanout)>;
  void ForEachNode(const NodeVisitor& visitor) const;

  /// Structural invariants (MBR correctness, max-count correctness, fanout
  /// bounds); used by tests. Returns false on any violation.
  bool CheckInvariants() const;

 private:
  friend class RTreeBuilder;  // packed construction

  struct Probe;  // one search's query bounds, active dimensions, outputs

  /// A node's padded slot count and its block of bounds: lows of
  /// dimension d at [d * lanes, (d + 1) * lanes), highs after all lows.
  static uint32_t Lanes(const NodeView& node);
  const ValueId* NodeBounds(const NodeView& node) const {
    return bounds_.data() + size_t{2} * dims_ * node.first_slot;
  }

  /// Appends a node holding `slots` (box, child or entry id, count) and
  /// returns its id.
  uint32_t AddNode(bool leaf, std::span<const RTreeEntry> slots);
  /// Bounding box and max count over a node's slots.
  Rect NodeMbr(uint32_t node_id) const;
  uint32_t NodeMaxCount(uint32_t node_id) const;
  template <bool kSupported>
  void SearchImpl(uint32_t node_id, const Probe& probe,
                  SearchStats* stats) const;
  void RunSearch(const Rect& query, bool supported, uint32_t min_count,
                 Bitmap* contained, Bitmap* overlapped,
                 SearchStats* stats) const;
  bool CheckNode(uint32_t node_id, uint32_t depth) const;

  uint32_t dims_;
  Options options_;
  std::vector<NodeView> nodes_;
  std::vector<ValueId> bounds_;  // per node, dimension-major (NodeBounds)
  std::vector<uint32_t> slot_ids_;
  std::vector<uint32_t> slot_counts_;
  std::vector<uint16_t> slot_live_;  // 0xFFFF: a non-empty box, else 0
  Rect mbr_;                         // the root's MBR
  uint32_t root_ = 0;
  uint32_t size_ = 0;
  uint32_t height_ = 1;
};

}  // namespace colarm

#endif  // COLARM_RTREE_RTREE_H_
