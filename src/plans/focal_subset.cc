#include "plans/focal_subset.h"

#include <algorithm>

namespace colarm {

FocalSubset FocalSubset::Materialize(const Dataset& dataset,
                                     const VerticalIndex& vertical,
                                     const Rect& box,
                                     uint64_t* record_checks) {
  FocalSubset subset;
  subset.box = box;
  const Schema& schema = dataset.schema();
  const uint32_t m = dataset.num_records();

  const std::vector<uint32_t> narrowed =
      NarrowedDims(box, Rect::FullDomain(schema));
  if (narrowed.empty()) {
    subset.bitmap = Bitmap(m);
    subset.bitmap.Fill();
  } else {
    if (record_checks != nullptr) *record_checks += m;
    Bitmap in_range;
    for (size_t i = 0; i < narrowed.size(); ++i) {
      const AttrId a = narrowed[i];
      const ValueId lo = box.lo(a);
      const ValueId hi =
          std::min<ValueId>(box.hi(a), schema.attribute(a).domain_size() - 1);
      if (lo > hi) {  // no value of `a` lies in the box
        subset.bitmap = Bitmap(m);
        break;
      }
      // The first attribute's union is built in place; later ones in
      // `in_range`, then ANDed in. Assigning the first value's bitmap
      // allocates the buffer once and reuses it for later attributes.
      Bitmap& values = i == 0 ? subset.bitmap : in_range;
      const ItemId base = schema.item_base(a);
      values = vertical.item(base + lo);
      for (ValueId v = lo + 1; v <= hi; ++v) {
        values.OrWith(vertical.item(base + v));
      }
      if (i > 0) subset.bitmap.AndWith(in_range);
    }
  }
  subset.bitmap.AppendTids(&subset.tids);
  return subset;
}

}  // namespace colarm
