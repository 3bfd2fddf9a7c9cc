#ifndef COLARM_TESTING_BRUTE_FORCE_H_
#define COLARM_TESTING_BRUTE_FORCE_H_

#include <span>
#include <vector>

#include "data/dataset.h"
#include "mining/charm.h"
#include "mining/itemset.h"

namespace colarm {

/// The reference miners every test compares against: one depth-first
/// enumeration over item ids with raw per-record lookups, independent of
/// CHARM's tidset algebra, the vertical view and the MIP-index. Exponential
/// in the worst case — feed them small datasets.

/// A frequent itemset together with its absolute support count.
struct FrequentItemset {
  Itemset items;
  uint32_t count = 0;

  bool operator==(const FrequentItemset& other) const = default;
};

/// All itemsets with support >= min_count (at least 1), in lexicographic
/// itemset order.
std::vector<FrequentItemset> MineFrequentBruteForce(const Dataset& dataset,
                                                    uint32_t min_count);

/// All *closed* itemsets with support >= min_count (at least 1): the
/// frequent itemsets equal to their closure, the set of items every
/// supporting record shares. Lexicographic itemset order, exact tidsets.
std::vector<ClosedItemset> MineClosedBruteForce(const Dataset& dataset,
                                                uint32_t min_count);

/// The records of `within` carrying every item of `items`.
Tidset SupportingTids(const Dataset& dataset, std::span<const ItemId> items,
                      std::span<const Tid> within);

/// Exact support count of an itemset by a full relation scan.
uint32_t CountSupport(const Dataset& dataset, std::span<const ItemId> items);

}  // namespace colarm

#endif  // COLARM_TESTING_BRUTE_FORCE_H_
