#ifndef COLARM_BITMAP_KERNELS_H_
#define COLARM_BITMAP_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"
#include "data/types.h"

namespace colarm {

/// The word-level kernel vocabulary of the bitmap routes, as a
/// function-pointer table so one binary carries scalar, AVX2, and AVX-512
/// implementations side by side and picks at runtime (common/cpu_features).
///
/// Every kernel operates on a raw window of 64-bit words — `Bitmap`'s
/// range methods pass `words() + word_begin` and `word_end - word_begin` —
/// so word-range sharding across the thread pool is byte-identical at any
/// ISA level: the window boundaries, not the vector width, define the
/// work split, and integer popcount sums are associative. Implementations
/// handle any window length (vector body + scalar tail); none may read or
/// write outside [p, p + n).
struct BitmapKernels {
  /// sum(popcount(a[i]))
  uint64_t (*popcount)(const uint64_t* a, size_t n);
  /// sum(popcount(a[i] & b[i]))
  uint64_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// sum(popcount(a[i] & b[i] & c[i]))
  uint64_t (*and3_count)(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, size_t n);
  /// dst[i] &= src[i]
  void (*and_inplace)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] |= src[i]
  void (*or_inplace)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst[i] &= ~src[i]
  void (*andnot_inplace)(uint64_t* dst, const uint64_t* src, size_t n);
  /// out[i] = a[i] & b[i]
  void (*and_into)(const uint64_t* a, const uint64_t* b, uint64_t* out,
                   size_t n);
  /// First index i in [0, n) with data[i] >= key, n if none; `data` sorted
  /// ascending. The probe inside TidsetIntersectSize's galloping path:
  /// binary steps narrow the window, a vector compare scan finishes it.
  size_t (*lower_bound)(const Tid* data, size_t n, Tid key);
};

/// Portable reference table; always available, byte-exact ground truth for
/// the vectorized tables in tests.
extern const BitmapKernels kScalarKernels;

/// Per-ISA tables, defined only when src/CMakeLists.txt compiled the
/// matching translation unit (x86 target + compiler flag probe). Never
/// reference these directly — KernelsForLevel() is the only odr-user and
/// guards on the build's COLARM_HAVE_*_TU definitions.
extern const BitmapKernels kAvx2Kernels;
extern const BitmapKernels kAvx512Kernels;
extern const BitmapKernels kAvx512VpopcntKernels;

/// Table for an explicit level, or nullptr when that level is not
/// executable here (host CPUID or non-x86 build). kAvx512 resolves the
/// VPOPCNTDQ sub-feature internally: the returned table uses vpopcntq when
/// the host has it and an AVX2-halves popcount otherwise.
const BitmapKernels* KernelsForLevel(SimdLevel level);

/// The table matching ActiveSimdLevel() right now. Re-read on every call
/// site batch (a pointer load), so SetActiveSimdLevel takes effect without
/// re-resolving anything.
const BitmapKernels& ActiveKernels();

}  // namespace colarm

#endif  // COLARM_BITMAP_KERNELS_H_
