#ifndef COLARM_MINING_LOCAL_COUNTER_H_
#define COLARM_MINING_LOCAL_COUNTER_H_

#include <span>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/vertical_index.h"
#include "data/dataset.h"
#include "mining/itemset.h"
#include "mining/tidset.h"

namespace colarm {

/// Local support of one (sorted) itemset within a dense focal-subset
/// bitmap: popcount(AND of the item bitmaps ∩ DQ), computed word-parallel
/// with no row access. `scratch` holds the running AND of three or more
/// items; it is sized to the relation on first use and clobbered, so a
/// candidate loop that keeps one stays allocation-free.
uint32_t BitmapLocalCount(const VerticalIndex& vertical, const Bitmap& dq,
                          std::span<const ItemId> itemset, Bitmap* scratch);

/// Counts, within a focal subset, the local support of *every* subset of a
/// candidate itemset — the record-level workhorse of VERIFY and
/// SUPPORTED-VERIFY (rule confidence needs antecedent counts for all
/// partitions of the itemset).
///
/// For itemsets up to kMaxMaskItems items the counter holds all 2^L subset
/// counts, so each CountOf() is O(1). Two routes fill the table:
///
///   row probe    each focal record's sub-pattern mask from L column
///                lookups, then a superset-sum (zeta) transform;
///   lattice DFS  one AND + popcount per subset of the itemset over the
///                item bitmaps and the DQ bitmap, each node reusing its
///                parent's intersection — taken only when the caller passes
///                a dense DQ's bitmap and the lattice moves fewer words than
///                the probe touches cells.
///
/// Longer itemsets count per query: word-parallel against a given DQ
/// bitmap, otherwise by scanning the tid list. The route never shows:
/// counts are identical, and `record_checks` charges one semantic pass over
/// the focal subset per full count (plus one per long-itemset CountOf), so
/// plans report byte-identical statistics whichever route ran.
class LocalSubsetCounter {
 public:
  static constexpr size_t kMaxMaskItems = 20;

  /// `itemset` must be sorted; `tids` is the focal subset's tid list. The
  /// counter spans it rather than copying — the caller's tid storage must
  /// outlive the counter, which every call site guarantees (the
  /// FocalSubset lives in the plan context, the counter in a loop body).
  /// `vertical` and `dq` come together: the index's item bitmaps and the
  /// focal subset as a bitmap, passed only when DQ is dense (IsDense);
  /// null runs the row routes.
  LocalSubsetCounter(const Dataset& dataset, Itemset itemset,
                     std::span<const Tid> tids,
                     const VerticalIndex* vertical = nullptr,
                     const Bitmap* dq = nullptr);

  /// Local support count of a subset of the constructor itemset. `subset`
  /// must be sorted and a subset of `itemset()`; unknown items count as
  /// never-present (returns 0).
  uint32_t CountOf(std::span<const ItemId> subset) const;

  /// Local support count of the full itemset.
  uint32_t CountFull() const { return full_count_; }

  const Itemset& itemset() const { return itemset_; }
  uint32_t base_size() const { return static_cast<uint32_t>(tids_.size()); }

  /// Number of record-level containment checks performed so far (feeds the
  /// plan cost statistics).
  uint64_t record_checks() const { return record_checks_; }

 private:
  uint32_t MaskOf(std::span<const ItemId> subset) const;
  void RowProbe();
  void LatticeDfs();
  /// Direct count of one itemset over the focal subset (long itemsets):
  /// word-parallel against the DQ bitmap when there is one, row probes
  /// over the tid list otherwise. Charges one pass over the subset.
  uint32_t Count(std::span<const ItemId> items) const;

  const Dataset* dataset_ = nullptr;
  const VerticalIndex* vertical_ = nullptr;
  const Bitmap* dq_ = nullptr;
  Itemset itemset_;
  std::span<const Tid> tids_;
  std::vector<uint32_t> superset_counts_;  // [mask] = |records ⊇ mask|
  uint32_t full_count_ = 0;
  mutable uint64_t record_checks_ = 0;
};

}  // namespace colarm

#endif  // COLARM_MINING_LOCAL_COUNTER_H_
