#ifndef COLARM_MINING_RULE_GENERATOR_H_
#define COLARM_MINING_RULE_GENERATOR_H_

#include <cstdint>

#include "mining/constraints.h"
#include "mining/local_counter.h"
#include "mining/rule.h"

namespace colarm {

/// Limits and bookkeeping for rule enumeration.
struct RuleGenOptions {
  /// Antecedent enumeration is 2^L per itemset; itemsets longer than this
  /// are skipped (and counted in RuleGenStats::itemsets_skipped) rather
  /// than blowing up a query.
  uint32_t max_itemset_length = 16;
};

struct RuleGenStats {
  uint64_t rules_considered = 0;
  uint64_t rules_emitted = 0;
  uint64_t itemsets_skipped = 0;
};

/// Per-itemset constraint pushdown for the rule enumeration: antecedent
/// partitions that leave a pinned item in the consequent are skipped before
/// they are counted (the ANTECEDENT-ATTRIBUTES prune of the 2^L lattice),
/// and measure floors reject rules before materialization. A
/// default-constructed filter leaves enumeration byte-identical.
struct RuleGenFilter {
  /// Bits (by itemset position) of items that must stay in the antecedent.
  uint32_t pinned_mask = 0;
  double min_lift = 0.0;
  double min_cosine = 0.0;
  double min_kulczynski = 0.0;
  /// HAVING minantsupp: antecedent partitions below
  /// MinCount(min_antecedent_supp, base) are pruned before the
  /// rules_considered tick. Deliberately not part of HasMeasures(): the
  /// floor needs only the antecedent count, never the consequent's.
  double min_antecedent_supp = 0.0;

  bool HasMeasures() const {
    return min_lift > 0.0 || min_cosine > 0.0 || min_kulczynski > 0.0;
  }
};

/// Emits into `out` every rule X => Y with X ∪ Y = counter.itemset(),
/// X, Y non-empty, and local confidence >= minconf. The itemset itself is
/// assumed to already satisfy the local minsupport check (the ELIMINATE /
/// SUPPORTED-VERIFY operators guarantee that).
///
/// Templated over the subset counter so cold and memo-replayed counts share
/// the enumeration: LocalSubsetCounter (row probe or lattice DFS) and
/// MemoSubsetCounter (core/query_cache.h) expose the same
/// CountOf/CountFull/itemset/base_size contract and identical counts, so
/// the emitted rules are byte-identical.
template <typename Counter>
void GenerateRulesForItemset(const Counter& counter, double minconf,
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

/// Unconstrained overload (the pre-constraint signature): kept so direct
/// callers and tests enumerate without building a filter.
template <typename Counter>
void GenerateRulesForItemset(const Counter& counter, double minconf,
                             const RuleGenOptions& options, RuleSet* out,
                             RuleGenStats* stats) {
  GenerateRulesForItemset(counter, minconf, options, RuleGenFilter{}, out,
                          stats);
}

}  // namespace colarm

#endif  // COLARM_MINING_RULE_GENERATOR_H_
