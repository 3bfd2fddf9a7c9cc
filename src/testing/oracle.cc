#include "testing/oracle.h"

#include <algorithm>

#include "mining/constraints.h"
#include "testing/brute_force.h"

namespace colarm {
namespace fuzzing {

uint32_t OracleMinCount(double fraction, uint32_t total) {
  if (fraction <= 0.0 || total == 0) return 1;
  const double raw = fraction * static_cast<double>(total);
  for (uint32_t c = 1; c < total; ++c) {
    if (static_cast<double>(c) + 1e-9 >= raw) return c;
  }
  return total;
}

Result<RuleSet> OracleLocalizedRules(const Dataset& dataset,
                                     double primary_support,
                                     const LocalizedQuery& query,
                                     const OracleOptions& options) {
  const Schema& schema = dataset.schema();
  COLARM_RETURN_IF_ERROR(query.Validate(schema));

  // DQ straight from the RANGE predicates (no Rect, no FocalSubset).
  std::vector<Tid> dq;
  for (Tid t = 0; t < dataset.num_records(); ++t) {
    bool inside = true;
    for (const RangeSelection& range : query.ranges) {
      const ValueId v = dataset.Value(t, range.attr);
      if (v < range.lo || v > range.hi) {
        inside = false;
        break;
      }
    }
    if (inside) dq.push_back(t);
  }
  RuleSet out;
  if (dq.empty()) return out;

  // The prestored family from first principles: closed + globally frequent
  // at the primary threshold.
  const std::vector<ClosedItemset> closed = MineClosedBruteForce(
      dataset, OracleMinCount(primary_support, dataset.num_records()));

  const std::vector<bool> allowed = query.ItemAttrMask(schema);
  int64_t min_count =
      static_cast<int64_t>(
          OracleMinCount(query.minsupp, static_cast<uint32_t>(dq.size()))) +
      options.inject_min_count_bias;
  if (min_count < 1) min_count = 1;

  for (const ClosedItemset& cfi : closed) {
    const size_t len = cfi.items.size();
    if (len < 2 || len > options.max_itemset_length || len > 31) continue;
    bool attrs_ok = true;
    for (ItemId item : cfi.items) {
      if (!allowed[schema.AttrOfItem(item)]) {
        attrs_ok = false;
        break;
      }
    }
    if (!attrs_ok) continue;
    // Exact at the itemset level: a rule's itemset is the full CFI.
    if (!ItemsetSatisfiesConstraints(cfi.items, query.constraints)) continue;
    const auto local =
        static_cast<uint32_t>(SupportingTids(dataset, cfi.items, dq).size());
    if (local < min_count) continue;

    const uint32_t full_mask = (1u << len) - 1;
    for (uint32_t mask = 1; mask < full_mask; ++mask) {
      Itemset antecedent;
      Itemset consequent;
      for (size_t i = 0; i < len; ++i) {
        if (mask & (1u << i)) {
          antecedent.push_back(cfi.items[i]);
        } else {
          consequent.push_back(cfi.items[i]);
        }
      }
      if (!query.constraints.antecedent_only.empty()) {
        bool pinned_ok = true;
        for (ItemId item : consequent) {
          if (std::binary_search(query.constraints.antecedent_only.begin(),
                                 query.constraints.antecedent_only.end(),
                                 schema.AttrOfItem(item))) {
            pinned_ok = false;
            break;
          }
        }
        if (!pinned_ok) continue;
      }
      const auto acount = static_cast<uint32_t>(
          SupportingTids(dataset, antecedent, dq).size());
      if (acount == 0) continue;
      const double confidence = static_cast<double>(local) / acount;
      if (confidence + 1e-12 < query.minconf) continue;
      if (query.constraints.HasMeasures()) {
        const auto ccount = static_cast<uint32_t>(
            SupportingTids(dataset, consequent, dq).size());
        const RuleCounts counts{local, acount, ccount,
                                static_cast<uint32_t>(dq.size())};
        if (!PassesMeasureFloors(counts, query.constraints)) continue;
      }
      out.rules.push_back(Rule{std::move(antecedent), std::move(consequent),
                               local, acount,
                               static_cast<uint32_t>(dq.size())});
    }
  }
  out.Canonicalize();
  return out;
}

}  // namespace fuzzing
}  // namespace colarm
