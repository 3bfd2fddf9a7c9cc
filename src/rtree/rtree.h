#ifndef COLARM_RTREE_RTREE_H_
#define COLARM_RTREE_RTREE_H_

#include <functional>
#include <vector>

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
/// Layout: every node's children are one contiguous run of *slots*, and
/// each slot's box lives inline in one flat ValueId array — the slot's
/// `dims` lower bounds, then its `dims` upper bounds — like the Guttman
/// exemplars' `I[NUMDIMS*2]`. Beside it, per slot, the child node id
/// (internal) or entry id (leaf) and the (max) support count. A search
/// reads the bounds it tests from one array, with no per-box allocation
/// and no pointer to chase.
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

  /// Match callback: the entry's id and count, plus whether its box is
  /// fully contained in the query box (feeds the contained/overlapped
  /// split of SS-E-U-V).
  using Visitor =
      std::function<void(uint32_t id, uint32_t count, bool contained)>;

  explicit RTree(uint32_t dims) : RTree(dims, Options()) {}
  RTree(uint32_t dims, Options options);

  uint32_t dims() const { return dims_; }
  uint32_t size() const { return size_; }
  /// Height in levels; 1 = root is a leaf. Leaves are level 0 internally.
  uint32_t height() const { return height_; }
  const Options& options() const { return options_; }

  /// Reports every entry whose box intersects `query`.
  void Search(const Rect& query, const Visitor& visitor,
              SearchStats* stats = nullptr) const;

  /// Supported R-tree filter: like Search but skips subtrees/entries whose
  /// (max) support count is below `min_count` (Lemma 4.4 upper bound).
  void SearchSupported(const Rect& query, uint32_t min_count,
                       const Visitor& visitor,
                       SearchStats* stats = nullptr) const;

  /// A node as a read-only view: leaf flag and its run of slots.
  struct NodeView {
    bool leaf = true;
    uint32_t first_slot = 0;
    uint32_t fanout = 0;
  };
  uint32_t root() const { return root_; }
  NodeView node(uint32_t node_id) const { return nodes_[node_id]; }
  /// Slot `slot`'s box, child (or entry) id and (max) support count.
  Rect SlotBox(uint32_t slot) const;
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

  const ValueId* SlotLo(uint32_t slot) const {
    return bounds_.data() + size_t{2} * dims_ * slot;
  }
  const ValueId* SlotHi(uint32_t slot) const { return SlotLo(slot) + dims_; }

  /// Opens an empty node whose slots are appended next.
  uint32_t NewNode(bool leaf);
  /// Appends a slot to the most recently opened node.
  void AddSlot(const Rect& box, uint32_t id, uint32_t count);
  /// Bounding box and max count over a node's slots.
  Rect NodeMbr(uint32_t node_id) const;
  uint32_t NodeMaxCount(uint32_t node_id) const;
  template <bool kSupported>
  void SearchImpl(uint32_t node_id, const ValueId* query_lo,
                  const ValueId* query_hi, uint32_t min_count,
                  const Visitor& visitor, SearchStats* stats) const;
  void RunSearch(const Rect& query, bool supported, uint32_t min_count,
                 const Visitor& visitor, SearchStats* stats) const;
  bool CheckNode(uint32_t node_id, uint32_t depth) const;

  uint32_t dims_;
  Options options_;
  std::vector<NodeView> nodes_;
  std::vector<ValueId> bounds_;  // [slot] = dims lows, then dims highs
  std::vector<uint32_t> slot_ids_;
  std::vector<uint32_t> slot_counts_;
  uint32_t root_ = 0;
  uint32_t size_ = 0;
  uint32_t height_ = 1;
};

}  // namespace colarm

#endif  // COLARM_RTREE_RTREE_H_
