#ifndef COLARM_MINING_TIDSET_H_
#define COLARM_MINING_TIDSET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/types.h"

namespace colarm {

/// A tidset is the sorted list of record ids supporting an itemset. CHARM
/// and the record-level operators work on tidset intersections.
using Tidset = std::vector<Tid>;

/// Sorted-merge intersection a ∩ b.
Tidset TidsetIntersect(std::span<const Tid> a, std::span<const Tid> b);

/// Intersection into a caller-provided buffer (cleared first); avoids
/// allocation churn in hot mining loops.
void TidsetIntersectInto(std::span<const Tid> a, std::span<const Tid> b,
                         Tidset* out);

/// |a ∩ b| without materializing the intersection.
uint32_t TidsetIntersectSize(std::span<const Tid> a, std::span<const Tid> b);

/// Sum of tids — the cheap hash CHARM uses to bucket equal tidsets.
uint64_t TidsetSum(std::span<const Tid> tids);

}  // namespace colarm

#endif  // COLARM_MINING_TIDSET_H_
