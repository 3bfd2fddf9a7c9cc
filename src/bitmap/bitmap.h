#ifndef COLARM_BITMAP_BITMAP_H_
#define COLARM_BITMAP_BITMAP_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "data/types.h"

namespace colarm {

/// A dense, word-aligned bitmap over a fixed record universe [0, size):
/// bit t is set iff record t is a member. The word-parallel substrate of
/// the dense record-level routes — one AND+popcount over 64 records per
/// instruction instead of 64 record-level probes.
///
/// All binary kernels require equal universes. The range variants operate
/// on an explicit [word_begin, word_end) window so callers (DQ
/// materialization, big counts) can shard one kernel across the thread
/// pool by word range; words are independent, so any sharding recombines
/// to the same result.
class Bitmap {
 public:
  static constexpr uint32_t kBitsPerWord = 64;

  Bitmap() = default;

  /// All-zero bitmap over `size` records.
  explicit Bitmap(uint32_t size)
      : size_(size), words_((size + kBitsPerWord - 1) / kBitsPerWord, 0) {}

  /// Bitmap of the given sorted tid list over a universe of `size`.
  static Bitmap FromTids(std::span<const Tid> tids, uint32_t size);

  uint32_t size() const { return size_; }
  uint32_t num_words() const { return static_cast<uint32_t>(words_.size()); }
  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }

  void Set(Tid t) { words_[t / kBitsPerWord] |= 1ull << (t % kBitsPerWord); }
  bool Test(Tid t) const {
    return (words_[t / kBitsPerWord] >> (t % kBitsPerWord)) & 1u;
  }

  /// Sets every bit of the universe (trailing slack bits stay zero, an
  /// invariant every kernel below preserves).
  void Fill();

  /// Number of set bits (hardware popcount).
  uint64_t Count() const;
  uint64_t CountRange(uint32_t word_begin, uint32_t word_end) const;

  /// this &= other.
  void AndWith(const Bitmap& other);
  void AndWithRange(const Bitmap& other, uint32_t word_begin,
                    uint32_t word_end);
  /// this &= ~other.
  void AndNotWith(const Bitmap& other);
  /// this |= other.
  void OrWith(const Bitmap& other);
  void OrWithRange(const Bitmap& other, uint32_t word_begin,
                   uint32_t word_end);

  /// out = a & b without touching a or b (out must share the universe).
  static void AndInto(const Bitmap& a, const Bitmap& b, Bitmap* out);

  /// popcount(a & b) without materializing the intersection.
  static uint64_t AndCount(const Bitmap& a, const Bitmap& b);
  static uint64_t AndCountRange(const Bitmap& a, const Bitmap& b,
                                uint32_t word_begin, uint32_t word_end);

  /// popcount(a & b & c) — the fused kernel a two-item local count uses to
  /// skip one materialization.
  static uint64_t And3Count(const Bitmap& a, const Bitmap& b,
                            const Bitmap& c);

  /// Sum of the set-bit positions (the tidset hash CHARM buckets by).
  uint64_t SumOfBits() const;

  /// Calls `fn(t)` for every set bit t, in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (uint32_t w = 0; w < num_words(); ++w) {
      const Tid base = static_cast<Tid>(w) * kBitsPerWord;
      for (uint64_t word = words_[w]; word != 0; word &= word - 1) {
        fn(base + static_cast<Tid>(std::countr_zero(word)));
      }
    }
  }

  /// Appends the set bits, in increasing order, as tids.
  void AppendTids(std::vector<Tid>* out) const;
  std::vector<Tid> ToTids() const;

  bool operator==(const Bitmap& other) const = default;

 private:
  uint32_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// The one density bar of every tid-set representation choice: a set of
/// `count` records out of `universe` is dense when it holds at least one
/// record per 64-bit word (count x 64 >= universe). Above it a bitmap pass
/// touches no more words than a tid-list pass touches tids, so the word-
/// parallel route wins; below it the sorted list (or a per-record probe)
/// does. HybridTidset, the MIP build's miner choice and the plan
/// operators' record-level routes all call it.
inline bool IsDense(uint64_t count, uint64_t universe) {
  return count * Bitmap::kBitsPerWord >= universe;
}

}  // namespace colarm

#endif  // COLARM_BITMAP_BITMAP_H_
