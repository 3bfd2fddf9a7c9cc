#include "mining/rule_generator.h"

namespace colarm {

void GenerateRulesForItemset(const LocalSubsetCounter& counter, double minconf,
                             const RuleGenOptions& options,
                             const RuleGenFilter& filter, RuleSet* out,
                             RuleGenStats* stats) {
  const Itemset& itemset = counter.itemset();
  const size_t len = itemset.size();
  if (len < 2) return;  // a rule needs a non-empty antecedent and consequent
  if (len > options.max_itemset_length || len > 31) {
    ++stats->itemsets_skipped;
    return;
  }
  const uint32_t itemset_count = counter.CountFull();
  const uint32_t base = counter.base_size();
  const uint32_t full_mask = (1u << len) - 1;
  const bool measures = filter.HasMeasures();
  const uint32_t min_antecedent_count =
      filter.min_antecedent_supp > 0.0
          ? MinCount(filter.min_antecedent_supp, base)
          : 0;

  Itemset antecedent;
  Itemset consequent;
  antecedent.reserve(len);
  consequent.reserve(len);
  for (uint32_t mask = 1; mask < full_mask; ++mask) {
    // Pinned items belong in the antecedent: partitions that put one in the
    // consequent are pruned before they cost a count or a counter tick.
    if ((mask & filter.pinned_mask) != filter.pinned_mask) continue;
    antecedent.clear();
    consequent.clear();
    for (size_t i = 0; i < len; ++i) {
      if (mask & (1u << i)) {
        antecedent.push_back(itemset[i]);
      } else {
        consequent.push_back(itemset[i]);
      }
    }
    const uint32_t antecedent_count = counter.CountOf(antecedent);
    // HAVING minantsupp prunes the partition before it counts as
    // considered — pushdown strictly shrinks the enumeration the counters
    // report, and exactly matches the post-filter's integer comparison.
    if (antecedent_count < min_antecedent_count) continue;
    ++stats->rules_considered;
    if (antecedent_count == 0) continue;
    const double confidence =
        static_cast<double>(itemset_count) / antecedent_count;
    if (confidence + 1e-12 < minconf) continue;
    if (measures) {
      // Same integer the post-filter derives by scanning the focal subset,
      // so the measure doubles (and thus keep/drop) are bit-identical.
      const RuleCounts counts{itemset_count, antecedent_count,
                              counter.CountOf(consequent), base};
      if ((filter.min_lift > 0.0 &&
           Lift(counts) + 1e-12 < filter.min_lift) ||
          (filter.min_cosine > 0.0 &&
           Cosine(counts) + 1e-12 < filter.min_cosine) ||
          (filter.min_kulczynski > 0.0 &&
           Kulczynski(counts) + 1e-12 < filter.min_kulczynski)) {
        continue;
      }
    }
    out->rules.push_back(Rule{antecedent, consequent, itemset_count,
                              antecedent_count, base});
    ++stats->rules_emitted;
  }
}

}  // namespace colarm
