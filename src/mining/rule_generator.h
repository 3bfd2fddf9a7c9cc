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

  void Add(const RuleGenStats& other) {
    rules_considered += other.rules_considered;
    rules_emitted += other.rules_emitted;
    itemsets_skipped += other.itemsets_skipped;
  }
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
/// SUPPORTED-VERIFY operators guarantee that). Every counter route holds
/// identical counts, so the emitted rules are byte-identical.
void GenerateRulesForItemset(const LocalSubsetCounter& counter, double minconf,
                             const RuleGenOptions& options,
                             const RuleGenFilter& filter, RuleSet* out,
                             RuleGenStats* stats);

/// Unconstrained overload (the pre-constraint signature): kept so direct
/// callers and tests enumerate without building a filter.
inline void GenerateRulesForItemset(const LocalSubsetCounter& counter,
                                    double minconf,
                                    const RuleGenOptions& options, RuleSet* out,
                                    RuleGenStats* stats) {
  GenerateRulesForItemset(counter, minconf, options, RuleGenFilter{}, out,
                          stats);
}

}  // namespace colarm

#endif  // COLARM_MINING_RULE_GENERATOR_H_
