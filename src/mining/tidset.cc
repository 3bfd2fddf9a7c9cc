#include "mining/tidset.h"

#include <algorithm>

#include "bitmap/kernels.h"

namespace colarm {

namespace {

// Size-skew ratio beyond which the merge loop loses to galloping probes:
// the merge walks every element of the big side, O(|a|+|b|), while
// galloping pays O(|a| log(|b|/|a|)) — a win once the big side dwarfs the
// small one by more than the probe overhead.
constexpr size_t kGallopSkewRatio = 32;

// First index i >= begin with b[i] >= key, found by exponential probing
// from `begin` followed by a lower-bound search inside the bracketed
// window. Cheap when consecutive keys land near each other in b. The
// window search goes through the dispatched SIMD kernel: binary steps down
// to a small window, then an 8/16-lane compare scan — same index on every
// ISA level (the lower bound is unique), only the probe cost changes.
size_t GallopLowerBound(std::span<const Tid> b, size_t begin, Tid key) {
  if (begin >= b.size() || b[begin] >= key) return begin;
  size_t bound = 1;
  while (begin + bound < b.size() && b[begin + bound] < key) bound <<= 1;
  // b[begin + bound/2] < key, so the answer lies in (begin + bound/2,
  // begin + bound].
  const size_t lo = begin + (bound >> 1) + 1;
  const size_t hi = std::min(begin + bound + 1, b.size());
  return lo + ActiveKernels().lower_bound(b.data() + lo, hi - lo, key);
}

uint32_t GallopIntersectSize(std::span<const Tid> small,
                             std::span<const Tid> big) {
  uint32_t count = 0;
  size_t j = 0;
  for (Tid key : small) {
    j = GallopLowerBound(big, j, key);
    if (j == big.size()) break;
    if (big[j] == key) {
      ++count;
      ++j;
    }
  }
  return count;
}

}  // namespace

Tidset TidsetIntersect(std::span<const Tid> a, std::span<const Tid> b) {
  Tidset out;
  TidsetIntersectInto(a, b, &out);
  return out;
}

void TidsetIntersectInto(std::span<const Tid> a, std::span<const Tid> b,
                         Tidset* out) {
  out->clear();
  out->reserve(std::min(a.size(), b.size()));
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

uint32_t TidsetIntersectSize(std::span<const Tid> a, std::span<const Tid> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() * kGallopSkewRatio < b.size()) {
    return GallopIntersectSize(a, b);
  }
  uint32_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

uint64_t TidsetSum(std::span<const Tid> tids) {
  uint64_t sum = 0;
  for (Tid t : tids) sum += t;
  return sum;
}

}  // namespace colarm
