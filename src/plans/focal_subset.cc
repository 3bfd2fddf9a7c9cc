#include "plans/focal_subset.h"

namespace colarm {

FocalSubset FocalSubset::Materialize(const Dataset& dataset, const Rect& box,
                                     uint64_t* record_checks) {
  FocalSubset subset;
  subset.box = box;

  // Only attributes with a real restriction need record-level tests.
  const std::vector<uint32_t> constrained =
      NarrowedDims(box, Rect::FullDomain(dataset.schema()));
  if (constrained.empty()) {
    subset.tids.resize(dataset.num_records());
    for (Tid t = 0; t < dataset.num_records(); ++t) subset.tids[t] = t;
    return subset;
  }

  for (Tid t = 0; t < dataset.num_records(); ++t) {
    bool inside = true;
    for (AttrId a : constrained) {
      ValueId v = dataset.Value(t, a);
      if (v < box.lo(a) || v > box.hi(a)) {
        inside = false;
        break;
      }
    }
    if (inside) subset.tids.push_back(t);
  }
  if (record_checks != nullptr) {
    *record_checks += dataset.num_records();
  }
  return subset;
}

}  // namespace colarm
