#ifndef COLARM_RTREE_RECT_H_
#define COLARM_RTREE_RECT_H_

#include <span>
#include <string>
#include <vector>

#include "data/schema.h"
#include "data/types.h"

namespace colarm {

/// Axis-aligned box over the discretized value space: one inclusive
/// [lo, hi] ValueId interval per attribute. Dimensionality is dynamic (one
/// dimension per relation attribute). A default-constructed or
/// MakeEmpty() rect is "empty" (contains nothing) until expanded.
class Rect {
 public:
  Rect() = default;

  /// Empty rect of the given dimensionality (lo > hi in every dimension).
  static Rect MakeEmpty(uint32_t dims);

  /// [0, domain_size-1] in every dimension of the schema.
  static Rect FullDomain(const Schema& schema);

  /// Point rect from one value per dimension.
  static Rect FromPoint(std::span<const ValueId> values);

  uint32_t dims() const { return static_cast<uint32_t>(bounds_.size() / 2); }
  bool empty() const;

  ValueId lo(uint32_t d) const { return bounds_[2 * d]; }
  ValueId hi(uint32_t d) const { return bounds_[2 * d + 1]; }
  void SetInterval(uint32_t d, ValueId lo, ValueId hi) {
    bounds_[2 * d] = lo;
    bounds_[2 * d + 1] = hi;
  }

  /// Grows this rect to cover `other` (dims must match; empty operands are
  /// handled).
  void ExpandToInclude(const Rect& other);
  void ExpandToIncludePoint(std::span<const ValueId> values);

  /// Box intersection test. Empty rects intersect nothing.
  bool Intersects(const Rect& other) const;

  /// True iff this rect fully contains `other` (other ⊆ this). An empty
  /// `other` is contained in everything non-empty of equal dims.
  bool Contains(const Rect& other) const;

  bool ContainsPoint(std::span<const ValueId> values) const;

  /// Sum over dimensions of log(extent) — a volume proxy that cannot
  /// overflow in high dimensions. Empty rects return -infinity.
  double LogVolume() const;

  /// Extent (hi - lo + 1) of one dimension; 0 when empty.
  uint32_t Extent(uint32_t d) const;

  /// Extent normalized by the attribute's domain size, in (0, 1].
  double NormalizedExtent(uint32_t d, uint32_t domain_size) const;

  bool operator==(const Rect& other) const = default;

  std::string ToString() const;

 private:
  // lo0, hi0, lo1, hi1, ... (2 * dims values).
  std::vector<ValueId> bounds_;
};

/// The dimensions on which `box` does not cover `outer` (its lo lies above
/// outer's, or its hi below), in increasing order: the only ones on which a
/// box within `outer` can fall outside `box`. SELECT takes them against
/// the full domain, the session cache against a cached box that contains
/// the query's, and SEARCH against the R-tree's root MBR.
std::vector<uint32_t> NarrowedDims(const Rect& box, const Rect& outer);

}  // namespace colarm

#endif  // COLARM_RTREE_RECT_H_
