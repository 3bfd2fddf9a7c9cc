#include "bitmap/hybrid_tidset.h"

namespace colarm {

HybridTidset HybridTidset::FromTids(Tidset tids, uint32_t universe) {
  HybridTidset out;
  out.universe_ = universe;
  if (IsDense(tids.size(), universe)) {
    out.dense_ = true;
    out.count_ = static_cast<uint32_t>(tids.size());
    out.bits_ = Bitmap::FromTids(tids, universe);
  } else {
    out.tids_ = std::move(tids);
  }
  return out;
}

HybridTidset HybridTidset::Intersect(const HybridTidset& a,
                                     const HybridTidset& b) {
  HybridTidset out;
  out.universe_ = a.universe_;
  if (a.dense_ && b.dense_) {
    Bitmap result(a.universe_);
    Bitmap::AndInto(a.bits_, b.bits_, &result);
    const auto count = static_cast<uint32_t>(result.Count());
    if (IsDense(count, a.universe_)) {
      out.dense_ = true;
      out.count_ = count;
      out.bits_ = std::move(result);
    } else {
      out.tids_ = result.ToTids();
    }
  } else if (a.dense_ || b.dense_) {
    const Bitmap& bits = a.dense_ ? a.bits_ : b.bits_;
    const Tidset& tids = a.dense_ ? b.tids_ : a.tids_;
    out.tids_.reserve(tids.size());
    for (Tid t : tids) {
      if (bits.Test(t)) out.tids_.push_back(t);
    }
  } else {
    TidsetIntersectInto(a.tids_, b.tids_, &out.tids_);
  }
  return out;
}

uint64_t HybridTidset::Sum() const {
  return dense_ ? bits_.SumOfBits() : TidsetSum(tids_);
}

Tidset HybridTidset::ToTids() const {
  return dense_ ? bits_.ToTids() : tids_;
}

void HybridTidset::clear() {
  tids_.clear();
  Tidset().swap(tids_);
  bits_ = Bitmap();
  count_ = 0;
  dense_ = false;
}

}  // namespace colarm
