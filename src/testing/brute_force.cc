#include "testing/brute_force.h"

#include <algorithm>

namespace colarm {

namespace {

Tidset AllRecords(const Dataset& dataset) {
  Tidset all(dataset.num_records());
  for (Tid t = 0; t < dataset.num_records(); ++t) all[t] = t;
  return all;
}

/// The closure of the itemset supported by the non-empty `tids`: every item
/// present in all of them.
Itemset ClosureOf(const Dataset& dataset, std::span<const Tid> tids) {
  const Schema& schema = dataset.schema();
  Itemset closure;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const ValueId v = dataset.Value(tids.front(), a);
    bool shared = true;
    for (Tid t : tids.subspan(1)) {
      if (dataset.Value(t, a) != v) {
        shared = false;
        break;
      }
    }
    if (shared) closure.push_back(schema.ItemOf(a, v));
  }
  return closure;
}

/// Visits every extension of `prefix` by items >= `next_item` whose support
/// within `tids` reaches `min_count` (at least 1), depth first in increasing
/// item order, so the visits come in lexicographic itemset order.
template <typename Visit>
void Enumerate(const Dataset& dataset, uint32_t min_count, ItemId next_item,
               Itemset* prefix, const Tidset& tids, const Visit& visit) {
  for (ItemId item = next_item; item < dataset.schema().num_items(); ++item) {
    Tidset extended = SupportingTids(dataset, {&item, 1}, tids);
    if (extended.size() < min_count) continue;
    prefix->push_back(item);
    visit(*prefix, extended);
    Enumerate(dataset, min_count, item + 1, prefix, extended, visit);
    prefix->pop_back();
  }
}

}  // namespace

std::vector<FrequentItemset> MineFrequentBruteForce(const Dataset& dataset,
                                                    uint32_t min_count) {
  std::vector<FrequentItemset> out;
  Itemset prefix;
  Enumerate(dataset, std::max<uint32_t>(min_count, 1), 0, &prefix,
            AllRecords(dataset), [&](const Itemset& items, const Tidset& tids) {
              out.push_back({items, static_cast<uint32_t>(tids.size())});
            });
  return out;
}

std::vector<ClosedItemset> MineClosedBruteForce(const Dataset& dataset,
                                                uint32_t min_count) {
  std::vector<ClosedItemset> out;
  Itemset prefix;
  Enumerate(dataset, std::max<uint32_t>(min_count, 1), 0, &prefix,
            AllRecords(dataset), [&](const Itemset& items, const Tidset& tids) {
              if (ClosureOf(dataset, tids) == items) out.push_back({items, tids});
            });
  return out;
}

Tidset SupportingTids(const Dataset& dataset, std::span<const ItemId> items,
                      std::span<const Tid> within) {
  Tidset out;
  for (Tid t : within) {
    if (dataset.ContainsAll(t, items)) out.push_back(t);
  }
  return out;
}

uint32_t CountSupport(const Dataset& dataset, std::span<const ItemId> items) {
  return static_cast<uint32_t>(
      SupportingTids(dataset, items, AllRecords(dataset)).size());
}

}  // namespace colarm
