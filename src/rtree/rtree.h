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
  };

  /// Match callback: entry plus whether its box is fully contained in the
  /// query box (feeds the contained/overlapped split of SS-E-U-V).
  using Visitor = std::function<void(const RTreeEntry& entry, bool contained)>;

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

  /// Level-order walk over nodes for statistics collection. `level` counts
  /// from the root (0) down to the leaves (height-1).
  using NodeVisitor = std::function<void(uint32_t level, const Rect& mbr,
                                         bool is_leaf, uint32_t fanout)>;
  void ForEachNode(const NodeVisitor& visitor) const;

  /// Structural invariants (MBR correctness, max-count correctness, fanout
  /// bounds); used by tests. Returns false on any violation.
  bool CheckInvariants() const;

 private:
  friend class RTreeBuilder;  // packed construction

  struct Node {
    bool leaf = true;
    // Parallel arrays: child boxes plus, per slot, either a child node id
    // (internal) or an entry id (leaf), and the (max) support count.
    std::vector<Rect> boxes;
    std::vector<uint32_t> ids;
    std::vector<uint32_t> counts;
    Rect mbr;
    uint32_t max_count = 0;

    uint32_t fanout() const { return static_cast<uint32_t>(boxes.size()); }
  };

  uint32_t NewNode(bool leaf);
  void AddToNode(uint32_t node_id, const Rect& box, uint32_t id,
                 uint32_t count);
  void SearchImpl(uint32_t node_id, const Rect& query, uint32_t min_count,
                  bool use_support, const Visitor& visitor,
                  SearchStats* stats) const;
  bool CheckNode(uint32_t node_id, uint32_t depth) const;
  uint32_t NodeHeight(uint32_t node_id) const;

  uint32_t dims_;
  Options options_;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  uint32_t size_ = 0;
  uint32_t height_ = 1;
};

}  // namespace colarm

#endif  // COLARM_RTREE_RTREE_H_
