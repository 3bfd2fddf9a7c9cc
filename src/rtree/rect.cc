#include "rtree/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace colarm {

Rect Rect::MakeEmpty(uint32_t dims) {
  Rect rect;
  rect.bounds_.resize(2 * dims);
  for (uint32_t d = 0; d < dims; ++d) {
    rect.bounds_[2 * d] = std::numeric_limits<ValueId>::max();
    rect.bounds_[2 * d + 1] = 0;
  }
  return rect;
}

Rect Rect::FullDomain(const Schema& schema) {
  Rect rect;
  rect.bounds_.resize(2 * schema.num_attributes());
  for (uint32_t d = 0; d < schema.num_attributes(); ++d) {
    rect.bounds_[2 * d] = 0;
    rect.bounds_[2 * d + 1] =
        static_cast<ValueId>(schema.attribute(d).domain_size() - 1);
  }
  return rect;
}

Rect Rect::FromPoint(std::span<const ValueId> values) {
  Rect rect;
  rect.bounds_.resize(2 * values.size());
  for (uint32_t d = 0; d < values.size(); ++d) {
    rect.bounds_[2 * d] = values[d];
    rect.bounds_[2 * d + 1] = values[d];
  }
  return rect;
}

bool Rect::empty() const {
  if (bounds_.empty()) return true;
  for (uint32_t d = 0; d < dims(); ++d) {
    if (lo(d) > hi(d)) return true;
  }
  return false;
}

void Rect::ExpandToInclude(const Rect& other) {
  if (bounds_.empty()) {
    bounds_ = other.bounds_;
    return;
  }
  for (uint32_t d = 0; d < dims(); ++d) {
    bounds_[2 * d] = std::min(lo(d), other.lo(d));
    bounds_[2 * d + 1] = std::max(hi(d), other.hi(d));
  }
}

void Rect::ExpandToIncludePoint(std::span<const ValueId> values) {
  if (bounds_.empty()) {
    *this = FromPoint(values);
    return;
  }
  for (uint32_t d = 0; d < dims(); ++d) {
    bounds_[2 * d] = std::min(lo(d), values[d]);
    bounds_[2 * d + 1] = std::max(hi(d), values[d]);
  }
}

bool Rect::Intersects(const Rect& other) const {
  if (empty() || other.empty()) return false;
  for (uint32_t d = 0; d < dims(); ++d) {
    if (hi(d) < other.lo(d) || lo(d) > other.hi(d)) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  if (empty()) return false;
  if (other.empty()) return true;
  for (uint32_t d = 0; d < dims(); ++d) {
    if (other.lo(d) < lo(d) || other.hi(d) > hi(d)) return false;
  }
  return true;
}

bool Rect::ContainsPoint(std::span<const ValueId> values) const {
  if (empty()) return false;
  for (uint32_t d = 0; d < dims(); ++d) {
    if (values[d] < lo(d) || values[d] > hi(d)) return false;
  }
  return true;
}

double Rect::LogVolume() const {
  if (empty()) return -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (uint32_t d = 0; d < dims(); ++d) {
    sum += std::log(static_cast<double>(Extent(d)));
  }
  return sum;
}

uint32_t Rect::Extent(uint32_t d) const {
  if (lo(d) > hi(d)) return 0;
  return static_cast<uint32_t>(hi(d)) - lo(d) + 1;
}

double Rect::NormalizedExtent(uint32_t d, uint32_t domain_size) const {
  if (domain_size == 0) return 0.0;
  return static_cast<double>(Extent(d)) / domain_size;
}

std::vector<uint32_t> NarrowedDims(const Rect& box, const Rect& outer) {
  std::vector<uint32_t> narrowed;
  for (uint32_t d = 0; d < box.dims(); ++d) {
    if (box.lo(d) > outer.lo(d) || box.hi(d) < outer.hi(d)) {
      narrowed.push_back(d);
    }
  }
  return narrowed;
}

std::string Rect::ToString() const {
  std::string out = "[";
  for (uint32_t d = 0; d < dims(); ++d) {
    if (d > 0) out += " x ";
    out += StrFormat("%u..%u", lo(d), hi(d));
  }
  out += "]";
  return out;
}

}  // namespace colarm
