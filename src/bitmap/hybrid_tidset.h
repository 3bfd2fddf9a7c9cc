#ifndef COLARM_BITMAP_HYBRID_TIDSET_H_
#define COLARM_BITMAP_HYBRID_TIDSET_H_

#include <span>
#include <utility>

#include "bitmap/bitmap.h"
#include "mining/tidset.h"

namespace colarm {

/// A tidset that stores itself as a dense Bitmap when it covers at least
/// one record per word (IsDense, bitmap/bitmap.h) and as a sorted tid list
/// otherwise. CHARM's intersections then run word-parallel near the root
/// of the IT-tree, where tidsets are fat, and fall back to merge/probe as
/// the search deepens and tidsets sparsify — dense∧dense is an AND,
/// dense∧sparse a probe of the list against the bitmap, sparse∧sparse the
/// usual sorted merge. Representation never affects the value: size, tid
/// sum, and the materialized tid list are identical either way, which is
/// what keeps the hybrid CHARM's emission order byte-identical to the
/// list-based miner's.
class HybridTidset {
 public:
  HybridTidset() = default;

  /// Adopts a sorted tid list over [0, universe), picking the
  /// representation by density.
  static HybridTidset FromTids(Tidset tids, uint32_t universe);

  size_t size() const { return dense_ ? count_ : tids_.size(); }
  bool dense() const { return dense_; }
  uint32_t universe() const { return universe_; }

  /// a ∩ b (equal universes). Only dense∧dense can produce a dense result;
  /// a sparse operand bounds the output below the density threshold.
  static HybridTidset Intersect(const HybridTidset& a, const HybridTidset& b);

  /// Sum of member tids (CHARM's bucketing hash).
  uint64_t Sum() const;

  /// Materializes the sorted tid list.
  Tidset ToTids() const;

  // Tidset (std::vector) compatibility for the templated CHARM search.
  void clear();
  void shrink_to_fit() {}

 private:
  uint32_t universe_ = 0;
  bool dense_ = false;
  uint32_t count_ = 0;  // cardinality when dense
  Bitmap bits_;         // dense representation
  Tidset tids_;         // sparse representation
};

/// Overloads letting the templated CHARM search treat HybridTidset and
/// Tidset uniformly.
inline HybridTidset TidsetIntersect(const HybridTidset& a,
                                    const HybridTidset& b) {
  return HybridTidset::Intersect(a, b);
}
inline uint64_t TidsetSum(const HybridTidset& tids) { return tids.Sum(); }

}  // namespace colarm

#endif  // COLARM_BITMAP_HYBRID_TIDSET_H_
