#ifndef COLARM_MINING_ITEMSET_H_
#define COLARM_MINING_ITEMSET_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/schema.h"
#include "data/types.h"

namespace colarm {

/// An itemset is a set of items (attribute=value pairs) kept as a sorted,
/// duplicate-free vector of item ids. Because item ids are grouped by
/// attribute, a valid itemset has at most one item per attribute.
using Itemset = std::vector<ItemId>;

/// True iff `items` is strictly increasing (the representation invariant).
bool ItemsetIsValid(std::span<const ItemId> items);

/// Set union of two sorted itemsets.
Itemset ItemsetUnion(std::span<const ItemId> a, std::span<const ItemId> b);

/// True iff sorted `sub` ⊆ sorted `super`.
bool ItemsetIsSubset(std::span<const ItemId> sub, std::span<const ItemId> super);

/// True iff the two sorted itemsets share no item.
bool ItemsetDisjoint(std::span<const ItemId> a, std::span<const ItemId> b);

/// Appends the items' "Attr=value" labels joined by `sep`, no braces.
void AppendItems(const Schema& schema, std::span<const ItemId> items,
                 std::string_view sep, std::string* out);

/// Appends "{Age=20-30, Salary=90K-120K}".
void AppendItemset(const Schema& schema, std::span<const ItemId> items,
                   std::string* out);

/// AppendItemset into a fresh string.
std::string ItemsetToString(const Schema& schema, std::span<const ItemId> items);

/// Converts a fractional support threshold into the smallest absolute count
/// that satisfies it: the least c with c / total >= fraction (at least 1).
uint32_t MinCount(double fraction, uint32_t total);

}  // namespace colarm

#endif  // COLARM_MINING_ITEMSET_H_
