#ifndef COLARM_MINING_CONSTRAINTS_H_
#define COLARM_MINING_CONSTRAINTS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "mining/itemset.h"
#include "mining/measures.h"
#include "mining/rule.h"

namespace colarm {

/// Item constraints and interestingness thresholds attached to a localized
/// query (the interactive constrained-mining loop of Goethals & Van den
/// Bussche). Semantics over a rule X => Y, whose itemset is always the full
/// mined itemset M = X ∪ Y:
///
///   - must_contain:    M ⊇ must_contain;
///   - must_exclude:    M ∩ must_exclude = ∅;
///   - antecedent_only: items of these attributes may appear in X only;
///   - min_lift / min_cosine / min_kulczynski: measure floors (0 = off),
///     compared with the same +1e-12 slack minconfidence uses;
///   - min_antecedent_supp: local-support floor on the antecedent alone
///     (HAVING minantsupp): |DQ_X| >= MinCount(floor, |DQ|). An integer
///     count comparison, so pushdown and post-filter agree bit-for-bit.
///
/// An empty RuleConstraints leaves execution byte-identical to the
/// unconstrained engine: every pushdown site is gated on Empty().
struct RuleConstraints {
  Itemset must_contain;                 // sorted, duplicate-free item ids
  Itemset must_exclude;                 // sorted, duplicate-free item ids
  std::vector<AttrId> antecedent_only;  // sorted, duplicate-free attr ids
  double min_lift = 0.0;
  double min_cosine = 0.0;
  double min_kulczynski = 0.0;
  double min_antecedent_supp = 0.0;  // fraction of |DQ|, in [0, 1]

  bool HasItemConstraints() const {
    return !must_contain.empty() || !must_exclude.empty() ||
           !antecedent_only.empty();
  }
  bool HasMeasures() const {
    return min_lift > 0.0 || min_cosine > 0.0 || min_kulczynski > 0.0 ||
           min_antecedent_supp > 0.0;
  }
  bool Empty() const { return !HasItemConstraints() && !HasMeasures(); }

  /// Rejects out-of-range/duplicate/unsorted ids and non-finite or negative
  /// thresholds. Contradictory-but-well-formed constraints (e.g. an item in
  /// both must_contain and must_exclude) are VALID: they denote the empty
  /// rule set, which execution short-circuits.
  Status Validate(const Schema& schema) const;

  /// Query-text clause suffix (" AND CONTAIN {...} ..."); "" iff Empty().
  std::string ToString(const Schema& schema) const;

  bool operator==(const RuleConstraints& other) const = default;
};

/// True iff a mined itemset can yield any rule under the item constraints:
/// items ⊇ must_contain and items ∩ must_exclude = ∅. Exact (not just a
/// pruning bound) because a rule's itemset is the full mined itemset.
bool ItemsetSatisfiesConstraints(std::span<const ItemId> items,
                                 const RuleConstraints& constraints);

/// True iff the active measure floors pass, with the minconfidence slack.
bool PassesMeasureFloors(const RuleCounts& counts,
                         const RuleConstraints& constraints);

/// Post-filter reference semantics: applies the full constraint set to
/// rules mined WITHOUT constraints, deriving each consequent count by
/// scanning the focal subset `tids` (the same integer the pushdown gets
/// from its subset counter, so the measure doubles are bit-identical).
/// The differential constraint-equivalence invariant checks
/// pushdown == FilterRules(unconstrained).
RuleSet FilterRules(const Dataset& dataset, std::span<const Tid> tids,
                    const RuleSet& unconstrained,
                    const RuleConstraints& constraints);

}  // namespace colarm

#endif  // COLARM_MINING_CONSTRAINTS_H_
