#ifndef COLARM_ITTREE_ITTREE_H_
#define COLARM_ITTREE_ITTREE_H_

#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "mining/itemset.h"

namespace colarm {

/// The closed IT-tree of the MIP-index's second layer: a trie over the
/// stored closed frequent itemsets (CFIs), keyed by sorted item ids.
///
/// Besides exact lookups it answers the *closed-superset* query that makes
/// closed-itemset storage lossless: the support of ANY itemset X equals the
/// maximum support among stored closed supersets of X (the closure of X has
/// X's support, and every closed superset supports no more). The ARM plan
/// also builds a transient ITTree over locally mined CFIs to map prestored
/// itemsets to local supports.
class ITTree {
 public:
  ITTree() { nodes_.emplace_back(); }

  /// Adds a CFI with its (global or local) support count; returns its
  /// dense id (insertion order). `items` must be sorted and unique; the
  /// same itemset must not be inserted twice.
  uint32_t Insert(Itemset items, uint32_t count);

  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
  const Itemset& items(uint32_t id) const { return entries_[id].items; }
  uint32_t count(uint32_t id) const { return entries_[id].count; }

  /// Exact-match lookup.
  std::optional<uint32_t> Find(std::span<const ItemId> items) const;

  /// Max support over stored supersets of `items` — i.e. the support of
  /// `items` under the closure property. Returns 0 when no stored CFI
  /// contains `items` (the itemset was below the primary threshold).
  uint32_t MaxSupersetCount(std::span<const ItemId> items) const;

  /// Visits the id of every stored CFI that is a superset of `items`
  /// (including an exact match).
  void ForEachSuperset(std::span<const ItemId> items,
                       const std::function<void(uint32_t id)>& visitor) const;

  /// Visits the id of every stored CFI that is a *subset* of the sorted
  /// itemset `items` (including an exact match). Used by the ARM plan to
  /// intersect locally mined CFIs with the prestored global family.
  void ForEachSubsetOf(std::span<const ItemId> items,
                       const std::function<void(uint32_t id)>& visitor) const;

  /// Visits every stored CFI id.
  void ForEach(const std::function<void(uint32_t id)>& visitor) const;

  /// Number of trie nodes (storage metric reported by index stats).
  size_t num_nodes() const { return nodes_.size(); }

  static constexpr uint32_t kNoEntry = std::numeric_limits<uint32_t>::max();

  /// One trie node in depth-first position: a node precedes its subtree,
  /// children follow in item order. Entry ids follow the same order (see
  /// NumberDepthFirst), so the entries below a node hold the contiguous
  /// ids [entry_begin, entry_end), the node's own entry (if any) first.
  struct DepthFirstNode {
    ItemId item = 0;          // the item this node adds to its parent's prefix
    uint32_t depth = 0;       // prefix length; 0 is the root
    uint32_t subtree_end = 0;  // position one past the node's subtree
    uint32_t entry_begin = 0;
    uint32_t entry_end = 0;
    uint32_t entry = kNoEntry;  // entry id ending here, or kNoEntry
  };

  /// Lays the trie out in depth-first order (the ELIMINATE walk's layout).
  /// Call once, after the last Insert. The entries must have been inserted
  /// in strictly increasing itemset-lexicographic order, which is the
  /// trie's depth-first order, so each entry's id is its position among
  /// the entries of the layout.
  void NumberDepthFirst();

  /// The NumberDepthFirst layout, root first; empty before it runs.
  std::span<const DepthFirstNode> depth_first() const { return depth_first_; }
  /// Longest stored itemset (after NumberDepthFirst).
  uint32_t max_depth() const { return max_depth_; }

 private:
  struct Node {
    // Sorted by item id; binary-searchable.
    std::vector<std::pair<ItemId, uint32_t>> children;
    // Entry terminating at this node, if any.
    std::optional<uint32_t> entry;
  };
  struct Entry {
    Itemset items;
    uint32_t count;
  };

  void SupersetWalk(uint32_t node_id, std::span<const ItemId> items,
                    size_t next,
                    const std::function<void(uint32_t id)>& visitor) const;
  void SubsetWalk(uint32_t node_id, std::span<const ItemId> items,
                  size_t next,
                  const std::function<void(uint32_t id)>& visitor) const;

  std::vector<Node> nodes_;
  std::vector<Entry> entries_;
  std::vector<DepthFirstNode> depth_first_;
  uint32_t max_depth_ = 0;
};

}  // namespace colarm

#endif  // COLARM_ITTREE_ITTREE_H_
