#include "mining/itemset.h"

#include <algorithm>
#include <cmath>

namespace colarm {

bool ItemsetIsValid(std::span<const ItemId> items) {
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1] >= items[i]) return false;
  }
  return true;
}

Itemset ItemsetUnion(std::span<const ItemId> a, std::span<const ItemId> b) {
  Itemset out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool ItemsetIsSubset(std::span<const ItemId> sub,
                     std::span<const ItemId> super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool ItemsetDisjoint(std::span<const ItemId> a, std::span<const ItemId> b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

void AppendItems(const Schema& schema, std::span<const ItemId> items,
                 std::string_view sep, std::string* out) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->append(sep);
    schema.AppendItem(items[i], out);
  }
}

void AppendItemset(const Schema& schema, std::span<const ItemId> items,
                   std::string* out) {
  out->push_back('{');
  AppendItems(schema, items, ", ", out);
  out->push_back('}');
}

std::string ItemsetToString(const Schema& schema,
                            std::span<const ItemId> items) {
  std::string out;
  AppendItemset(schema, items, &out);
  return out;
}

uint32_t MinCount(double fraction, uint32_t total) {
  if (fraction <= 0.0 || total == 0) return 1;
  double raw = fraction * static_cast<double>(total);
  auto count = static_cast<uint32_t>(std::ceil(raw - 1e-9));
  return std::max<uint32_t>(1, count);
}

}  // namespace colarm
