#ifndef COLARM_COST_COST_MODEL_H_
#define COLARM_COST_COST_MODEL_H_

#include <array>
#include <string>

#include "cost/calibration.h"
#include "cost/cardinality.h"
#include "mip/index_stats.h"
#include "plans/plans.h"

namespace colarm {

/// How the session cache would serve a query's focal subset.
enum class CacheTier {
  kNone,         // cold: full relation scan
  kExact,        // a cached subset with the identical box
  kContainment,  // a cached subset whose box contains the query's
  kCompose,      // tier 2.5: assembled from several overlapping entries
};

const char* CacheTierName(CacheTier tier);

/// What the session cache reports to the optimizer before planning: the
/// reuse tier the SELECT stage would hit, and the size of the cached
/// subset a containment hit would filter instead of scanning the
/// relation. Recorded in the decision as the cache-provenance field.
struct CacheHint {
  CacheTier tier = CacheTier::kNone;
  /// |cached subset| the derive step touches (exact: the subset itself;
  /// compose: the summed tid-run length the combine walks).
  double cached_size = 0.0;
  /// Attributes whose interval actually narrowed (containment and
  /// compose) — the ones the derive step re-tests per cached record.
  uint32_t delta_attrs = 0;
  /// Resident entries a tier-2.5 composition combines (compose only).
  uint32_t compose_sources = 0;
};

/// Constant-time cost estimate of one plan for one query, in pseudo-
/// nanoseconds, with the operator breakdown the paper's Equations 1-6
/// prescribe.
struct PlanCostEstimate {
  PlanKind plan = PlanKind::kSEV;
  double total = 0.0;

  double select = 0.0;
  double search = 0.0;
  double eliminate = 0.0;
  double verify = 0.0;
  double mine = 0.0;

  // Intermediate cardinalities (exposed for EXPLAIN output and tests).
  double est_subset_size = 0.0;
  double est_candidates = 0.0;
  double est_contained = 0.0;
  double est_qualified = 0.0;

  std::string ToString() const;
};

/// Implements the paper's plan cost formulas over the precomputed
/// IndexStats, the histogram-based cardinality estimator, and calibrated
/// unit costs. Estimating all six plans is a handful of closed-form
/// evaluations — no data access.
class CostModel {
 public:
  /// The record-level terms are priced by the route execution takes for
  /// the estimated |DQ|: word-parallel bitmap kernels when it clears the
  /// density bar (IsDense, bitmap/bitmap.h), row probes otherwise.
  CostModel(const IndexStats& stats, const CardinalityEstimator& cardinality,
            CostConstants constants)
      : stats_(&stats), cardinality_(&cardinality), constants_(constants) {}

  /// `hint` (when non-null) reprices the SELECT term with what the session
  /// cache would actually do — an exact-hit copy or a containment delta
  /// filter instead of the cold relation scan. SELECT is additive and
  /// plan-uniform across all six plans, so the repricing moves every total
  /// by the same amount and provably never changes which plan wins; it only
  /// makes the absolute estimates honest for EXPLAIN and accuracy studies.
  PlanCostEstimate Estimate(PlanKind kind, const LocalizedQuery& query,
                            const CacheHint* hint = nullptr) const;

  std::array<PlanCostEstimate, 6> EstimateAll(
      const LocalizedQuery& query, const CacheHint* hint = nullptr) const;

  const CostConstants& constants() const { return constants_; }
  const CardinalityEstimator& cardinality() const { return *cardinality_; }

 private:
  /// Expected R-tree node accesses (Theodoridis & Sellis / Lemma 4.1
  /// machinery). `pass_fraction` < 1 models the supported filter.
  double ExpectedNodeAccesses(const std::vector<double>& query_extents,
                              double pass_fraction) const;

  /// Lemma 4.1: expected number of MIPs intersecting the focal box.
  double ExpectedCandidates(const std::vector<double>& query_extents) const;

  /// Probability a MIP bbox is fully contained in the focal box under the
  /// uniform-position model.
  double ContainedFraction(const std::vector<double>& query_extents) const;

  /// Fraction of candidates surviving the *local* minsupport check
  /// (Lemma 4.2 refinement via the stored support distribution).
  double QualifiedFraction(const LocalizedQuery& query) const;

  /// Fraction of MIPs whose items all lie on allowed item attributes.
  double ItemAttrFraction(const LocalizedQuery& query) const;

  double RulesPerItemset() const;

  const IndexStats* stats_;
  const CardinalityEstimator* cardinality_;
  CostConstants constants_;
};

}  // namespace colarm

#endif  // COLARM_COST_COST_MODEL_H_
