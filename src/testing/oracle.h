#ifndef COLARM_TESTING_ORACLE_H_
#define COLARM_TESTING_ORACLE_H_

#include "common/status.h"
#include "data/dataset.h"
#include "mining/rule.h"
#include "plans/query.h"

namespace colarm {
namespace fuzzing {

/// Knobs of the reference oracle. `inject_min_count_bias` deliberately
/// perturbs the local minsupport threshold (simulating a `>` vs `>=`
/// off-by-one in the system under test); the differential checker must
/// catch the resulting divergence — see tests/prop/shrinker_test.cc.
struct OracleOptions {
  uint32_t max_itemset_length = 31;
  int32_t inject_min_count_bias = 0;
};

/// Brute-force reference implementation of the localized-mining contract
/// (DESIGN.md §2), independent of CHARM, the MIP-index, the R-tree, and
/// every plan operator:
///
///   1. DQ is found by scanning the raw records against the RANGE
///      predicates directly.
///   2. The prestored family is re-derived from first principles: every
///      globally frequent itemset at the primary threshold whose closure
///      (the set of items shared by all its supporting records) equals
///      itself (MineClosedBruteForce, testing/brute_force.h — the same
///      reference the unit tests check CHARM and the MIP-index against).
///   3. Local supports and antecedent counts come from per-itemset scans
///      over DQ; thresholds use the contract's ceil semantics and the
///      contract's confidence tolerance (conf + 1e-12 >= minconf).
///
/// Exponential in the worst case — feed it the small datasets the fuzz
/// generator produces.
Result<RuleSet> OracleLocalizedRules(const Dataset& dataset,
                                     double primary_support,
                                     const LocalizedQuery& query,
                                     const OracleOptions& options = {});

/// The contract's threshold semantics, implemented independently of
/// MinCount (mining/itemset.h): the least count c >= 1 whose fraction of
/// `total` reaches `fraction`, found by linear scan.
uint32_t OracleMinCount(double fraction, uint32_t total);

}  // namespace fuzzing
}  // namespace colarm

#endif  // COLARM_TESTING_ORACLE_H_
