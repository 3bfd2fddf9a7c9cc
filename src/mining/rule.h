#ifndef COLARM_MINING_RULE_H_
#define COLARM_MINING_RULE_H_

#include <string>
#include <vector>

#include "data/schema.h"
#include "mining/itemset.h"

namespace colarm {

/// An association rule X => Y evaluated against a focal subset: supports
/// are absolute counts relative to base_count = |DQ| (the full relation for
/// global rules).
struct Rule {
  Itemset antecedent;   // X
  Itemset consequent;   // Y (disjoint from X)
  uint32_t itemset_count = 0;     // |DQ_{X∪Y}|
  uint32_t antecedent_count = 0;  // |DQ_X|
  uint32_t base_count = 0;        // |DQ|

  double support() const {
    return base_count == 0
               ? 0.0
               : static_cast<double>(itemset_count) / base_count;
  }
  double confidence() const {
    return antecedent_count == 0
               ? 0.0
               : static_cast<double>(itemset_count) / antecedent_count;
  }

  /// Identity is the (X, Y) pair; counts are derived data.
  bool SameRule(const Rule& other) const {
    return antecedent == other.antecedent && consequent == other.consequent;
  }

  /// AppendRule into a fresh string.
  std::string ToString(const Schema& schema) const;
};

/// The rule writer: appends "{X} => {Y} (supp=S%, conf=C%)" with both
/// percentages to one decimal (printf "%.1f" bytes), straight into `out`.
void AppendRule(const Schema& schema, const Rule& rule, std::string* out);

/// Result set of a localized mining query.
struct RuleSet {
  std::vector<Rule> rules;

  /// Sorts into the canonical order, the order in which answers print:
  /// support descending, then confidence descending (both compared
  /// exactly on the counts; a zero denominator ranks as 0), then
  /// antecedent, then consequent. The order is total, so equal sets
  /// canonicalize to identical sequences whatever order they arrived in.
  void Canonicalize();

  /// True when both sets contain the same (X => Y) pairs with the same
  /// counts, regardless of order.
  bool SameAs(const RuleSet& other) const;
};

}  // namespace colarm

#endif  // COLARM_MINING_RULE_H_
