#ifndef COLARM_MINING_VERTICAL_H_
#define COLARM_MINING_VERTICAL_H_

#include <vector>

#include "data/dataset.h"
#include "mining/tidset.h"

namespace colarm {

/// Vertical (item -> tidset) representation of a dataset, the input format
/// for CHARM. tidset(i) lists the records carrying item i.
class VerticalView {
 public:
  explicit VerticalView(const Dataset& dataset);

  /// Vertical view restricted to a subset of records (used by the ARM plan
  /// to mine a focal subset from scratch). Tids keep their original ids.
  VerticalView(const Dataset& dataset, std::span<const Tid> subset);

  /// Empties the tidsets of the given items, removing them from every
  /// record of the view. Used by the ARM plan's EXCLUDE pushdown: an
  /// excluded item can never appear in a qualifying itemset, so dropping
  /// it prunes the mining lattice instead of filtering afterwards.
  /// Projection preserves the support and enumeration of every itemset
  /// that avoids the dropped items.
  void DropItems(std::span<const ItemId> items);

  uint32_t num_items() const { return static_cast<uint32_t>(tidsets_.size()); }
  uint32_t num_records() const { return num_records_; }
  const Tidset& tidset(ItemId item) const { return tidsets_[item]; }
  uint32_t support(ItemId item) const {
    return static_cast<uint32_t>(tidsets_[item].size());
  }

 private:
  std::vector<Tidset> tidsets_;
  uint32_t num_records_ = 0;
};

}  // namespace colarm

#endif  // COLARM_MINING_VERTICAL_H_
