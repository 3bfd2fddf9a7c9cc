#ifndef COLARM_PLANS_FOCAL_SUBSET_H_
#define COLARM_PLANS_FOCAL_SUBSET_H_

#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/vertical_index.h"
#include "data/dataset.h"
#include "rtree/rect.h"

namespace colarm {

/// The materialized focal subset DQ: its selection box, the sorted tid list
/// of records falling inside it, and the same records as a bitmap over the
/// relation. Every plan materializes DQ exactly once per query (the ARM
/// plan's SELECT operator is the same pass).
struct FocalSubset {
  Rect box;
  std::vector<Tid> tids;
  Bitmap bitmap;

  uint32_t size() const { return static_cast<uint32_t>(tids.size()); }

  /// SELECT over `vertical`, the dataset's item bitmaps: for each attribute
  /// the box narrows, the OR of the bitmaps of its values in range; the AND
  /// of those unions; then the tid list read off the result. A box that
  /// narrows nothing selects every record. `record_checks`, when given, is
  /// charged the cold semantic price: the relation size when the box
  /// narrows any attribute, nothing otherwise.
  static FocalSubset Materialize(const Dataset& dataset,
                                 const VerticalIndex& vertical,
                                 const Rect& box,
                                 uint64_t* record_checks = nullptr);
};

}  // namespace colarm

#endif  // COLARM_PLANS_FOCAL_SUBSET_H_
