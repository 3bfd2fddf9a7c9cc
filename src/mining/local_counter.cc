#include "mining/local_counter.h"

#include <array>
#include <utility>

namespace colarm {

uint32_t BitmapLocalCount(const VerticalIndex& vertical, const Bitmap& dq,
                          std::span<const ItemId> itemset, Bitmap* scratch) {
  if (itemset.empty()) return static_cast<uint32_t>(dq.Count());
  if (itemset.size() == 1) {
    return static_cast<uint32_t>(Bitmap::AndCount(vertical.item(itemset[0]), dq));
  }
  if (itemset.size() == 2) {
    return static_cast<uint32_t>(Bitmap::And3Count(
        vertical.item(itemset[0]), vertical.item(itemset[1]), dq));
  }
  if (scratch->size() != dq.size()) *scratch = Bitmap(dq.size());
  Bitmap::AndInto(vertical.item(itemset[0]), vertical.item(itemset[1]),
                  scratch);
  for (size_t i = 2; i < itemset.size(); ++i) {
    scratch->AndWith(vertical.item(itemset[i]));
  }
  return static_cast<uint32_t>(Bitmap::AndCount(*scratch, dq));
}

LocalSubsetCounter::LocalSubsetCounter(const Dataset& dataset, Itemset itemset,
                                       std::span<const Tid> tids,
                                       const VerticalIndex* vertical,
                                       const Bitmap* dq)
    : dataset_(&dataset),
      vertical_(vertical),
      dq_(dq),
      itemset_(std::move(itemset)),
      tids_(tids) {
  const size_t len = itemset_.size();
  if (len > kMaxMaskItems) {
    full_count_ = Count(itemset_);
    return;
  }
  superset_counts_.assign(size_t{1} << len, 0);
  // The lattice DFS moves 2^L bitmap rows of |D|/64 words; the probe
  // touches L cells per focal record. Dense DQs make the words cheap
  // relative to the records; the comparison settles each itemset.
  const bool dfs =
      dq_ != nullptr && len > 0 &&
      (uint64_t{1} << len) * dq_->num_words() <=
          static_cast<uint64_t>(tids_.size()) * len;
  if (dfs) {
    LatticeDfs();
  } else {
    RowProbe();
  }
  record_checks_ += tids_.size();
  full_count_ = superset_counts_.back();
}

void LocalSubsetCounter::RowProbe() {
  // Column pointers and wanted values hoisted out of the record loop: one
  // load and compare per (record, item), no item -> attribute lookups.
  const Schema& schema = dataset_->schema();
  const size_t len = itemset_.size();
  std::array<const ValueId*, kMaxMaskItems> columns{};
  std::array<ValueId, kMaxMaskItems> values{};
  for (size_t i = 0; i < len; ++i) {
    columns[i] = dataset_->Column(schema.AttrOfItem(itemset_[i])).data();
    values[i] = schema.ValueOfItem(itemset_[i]);
  }
  for (Tid t : tids_) {
    uint32_t mask = 0;
    for (size_t i = 0; i < len; ++i) {
      mask |= static_cast<uint32_t>(columns[i][t] == values[i]) << i;
    }
    ++superset_counts_[mask];
  }
  // Zeta transform over the superset lattice: after this,
  // superset_counts_[m] = #records whose item mask is a superset of m.
  for (size_t bit = 0; bit < len; ++bit) {
    const uint32_t bitmask = 1u << bit;
    for (uint32_t m = 0; m < superset_counts_.size(); ++m) {
      if ((m & bitmask) == 0) {
        superset_counts_[m] += superset_counts_[m | bitmask];
      }
    }
  }
}

void LocalSubsetCounter::LatticeDfs() {
  // superset_counts_[m] is directly popcount(AND of the mask's item
  // bitmaps ∩ DQ) — no transform needed. scratch[d] is the depth-d
  // running intersection.
  const size_t len = itemset_.size();
  superset_counts_[0] = static_cast<uint32_t>(dq_->Count());
  std::vector<Bitmap> scratch(len, Bitmap(vertical_->num_records()));
  auto dfs = [&](auto&& self, const Bitmap& parent, uint32_t mask,
                 size_t first_bit, size_t depth) -> void {
    for (size_t bit = first_bit; bit < len; ++bit) {
      Bitmap& cur = scratch[depth];
      Bitmap::AndInto(parent, vertical_->item(itemset_[bit]), &cur);
      const uint32_t child = mask | (1u << bit);
      superset_counts_[child] = static_cast<uint32_t>(cur.Count());
      self(self, cur, child, bit + 1, depth + 1);
    }
  };
  dfs(dfs, *dq_, 0, 0, 0);
}

uint32_t LocalSubsetCounter::Count(std::span<const ItemId> items) const {
  record_checks_ += tids_.size();
  if (dq_ != nullptr) {
    Bitmap scratch;
    return BitmapLocalCount(*vertical_, *dq_, items, &scratch);
  }
  uint32_t count = 0;
  for (Tid t : tids_) {
    if (dataset_->ContainsAll(t, items)) ++count;
  }
  return count;
}

uint32_t LocalSubsetCounter::MaskOf(std::span<const ItemId> subset) const {
  uint32_t mask = 0;
  size_t pos = 0;
  for (ItemId item : subset) {
    while (pos < itemset_.size() && itemset_[pos] < item) ++pos;
    if (pos == itemset_.size() || itemset_[pos] != item) {
      return UINT32_MAX;  // item not part of the base itemset
    }
    mask |= (1u << pos);
    ++pos;
  }
  return mask;
}

uint32_t LocalSubsetCounter::CountOf(std::span<const ItemId> subset) const {
  if (!superset_counts_.empty()) {
    uint32_t mask = MaskOf(subset);
    if (mask == UINT32_MAX) return 0;
    return superset_counts_[mask];
  }
  return Count(subset);
}

}  // namespace colarm
