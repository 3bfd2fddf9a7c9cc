#include "bitmap/vertical_index.h"

namespace colarm {

VerticalIndex VerticalIndex::Build(const Dataset& dataset, ThreadPool* pool) {
  VerticalIndex index;
  index.num_records_ = dataset.num_records();
  const Schema& schema = dataset.schema();
  index.items_.resize(schema.num_items());
  ParallelFor(pool, schema.num_attributes(), [&](size_t a) {
    const auto attr = static_cast<AttrId>(a);
    const std::vector<ValueId>& column = dataset.Column(attr);
    const ItemId base = schema.item_base(attr);
    for (ValueId v = 0; v < schema.attribute(attr).domain_size(); ++v) {
      index.items_[base + v] = Bitmap(index.num_records_);
    }
    for (Tid t = 0; t < column.size(); ++t) {
      index.items_[base + column[t]].Set(t);
    }
  });
  return index;
}

VerticalIndex VerticalIndex::FromBitmaps(std::vector<Bitmap> bitmaps,
                                         uint32_t num_records) {
  VerticalIndex index;
  index.num_records_ = num_records;
  index.items_ = std::move(bitmaps);
  return index;
}

}  // namespace colarm
