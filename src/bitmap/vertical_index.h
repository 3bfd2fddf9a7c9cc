#ifndef COLARM_BITMAP_VERTICAL_INDEX_H_
#define COLARM_BITMAP_VERTICAL_INDEX_H_

#include <vector>

#include "bitmap/bitmap.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace colarm {

/// The vertical bitmap representation of a dataset: one dense Bitmap per
/// (attribute, value) item, bit t set iff record t carries the item.
/// SELECT ORs and ANDs its bitmaps into DQ, and the dense-DQ record-level
/// routes run on it: every support count becomes popcount(item-AND ∩ DQ)
/// instead of a row scan.
///
/// Built once per MipIndex (parallel over attributes on the engine pool)
/// and persisted in the index cache (format v3). Memory is
/// num_items x num_records bits — the relation itself re-encoded one-hot.
class VerticalIndex {
 public:
  VerticalIndex() = default;

  /// One pass per attribute column; attributes build concurrently on
  /// `pool`. The result is identical for any pool (bitmaps are
  /// per-attribute-independent).
  static VerticalIndex Build(const Dataset& dataset, ThreadPool* pool);

  /// Assembles from already-validated per-item bitmaps (the index cache
  /// loader). `bitmaps[i]` must be item i's bitmap over `num_records`.
  static VerticalIndex FromBitmaps(std::vector<Bitmap> bitmaps,
                                   uint32_t num_records);

  bool empty() const { return items_.empty(); }
  uint32_t num_records() const { return num_records_; }
  uint32_t num_items() const { return static_cast<uint32_t>(items_.size()); }
  const Bitmap& item(ItemId item) const { return items_[item]; }

 private:
  uint32_t num_records_ = 0;
  std::vector<Bitmap> items_;
};

}  // namespace colarm

#endif  // COLARM_BITMAP_VERTICAL_INDEX_H_
