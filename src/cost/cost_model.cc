#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "bitmap/bitmap.h"
#include "common/string_util.h"

namespace colarm {

const char* CacheTierName(CacheTier tier) {
  switch (tier) {
    case CacheTier::kNone:
      return "none";
    case CacheTier::kExact:
      return "exact";
    case CacheTier::kContainment:
      return "containment";
    case CacheTier::kCompose:
      return "compose";
  }
  return "?";
}

std::string PlanCostEstimate::ToString() const {
  return StrFormat(
      "%-8s est=%.3fms (select=%.3f search=%.3f eliminate=%.3f verify=%.3f "
      "mine=%.3f) estQ=%.0f cands=%.1f contained=%.1f qualified=%.1f",
      PlanKindName(plan), total / 1e6, select / 1e6, search / 1e6,
      eliminate / 1e6, verify / 1e6, mine / 1e6, est_subset_size,
      est_candidates, est_contained, est_qualified);
}

double CostModel::ExpectedNodeAccesses(
    const std::vector<double>& query_extents, double pass_fraction) const {
  // Root is always read; each deeper level contributes the expected number
  // of its nodes whose MBR intersects the query box, scaled by the
  // supported filter's pass fraction.
  double accesses = 0.0;
  for (size_t level = 0; level < stats_->levels.size(); ++level) {
    const RTreeLevelStats& ls = stats_->levels[level];
    double overlap = 1.0;
    for (size_t d = 0; d < query_extents.size(); ++d) {
      overlap *= std::min(1.0, ls.avg_extent[d] + query_extents[d]);
    }
    double level_accesses = (level == 0)
                                ? 1.0
                                : std::min<double>(ls.num_nodes,
                                                   ls.num_nodes * overlap *
                                                       pass_fraction);
    accesses += level_accesses;
  }
  return accesses;
}

double CostModel::ExpectedCandidates(
    const std::vector<double>& query_extents) const {
  double overlap = 1.0;
  for (size_t d = 0; d < query_extents.size(); ++d) {
    overlap *= std::min(1.0, stats_->mip_avg_extent[d] + query_extents[d]);
  }
  return std::min<double>(stats_->num_mips, stats_->num_mips * overlap);
}

double CostModel::ContainedFraction(
    const std::vector<double>& query_extents) const {
  double prob = 1.0;
  for (size_t d = 0; d < query_extents.size(); ++d) {
    const double q = query_extents[d];
    const double p = stats_->mip_avg_extent[d];
    if (q >= 1.0) continue;  // unconstrained: always contained
    const double denom = std::max(1e-9, 1.0 - p);
    prob *= std::clamp((q - p) / denom, 0.0, 1.0);
  }
  return prob;
}

double CostModel::QualifiedFraction(const LocalizedQuery& query) const {
  // Under uniform overlap, a MIP's local support fraction tracks its global
  // one, so the local check passes for the MIPs whose *global* fraction
  // clears minsupp.
  uint32_t global_equiv = MinCount(query.minsupp, stats_->num_records);
  return stats_->FractionWithCountAtLeast(global_equiv);
}

double CostModel::ItemAttrFraction(const LocalizedQuery& query) const {
  if (query.item_attrs.empty() || stats_->num_attributes == 0) return 1.0;
  double allowed = static_cast<double>(query.item_attrs.size()) /
                   stats_->num_attributes;
  return std::pow(allowed, stats_->avg_itemset_length);
}

double CostModel::RulesPerItemset() const {
  double len = std::min(stats_->avg_itemset_length, 16.0);
  return std::max(0.0, std::pow(2.0, len) - 2.0);
}

PlanCostEstimate CostModel::Estimate(PlanKind kind, const LocalizedQuery& query,
                                     const CacheHint* hint) const {
  PlanCostEstimate est;
  est.plan = kind;

  std::vector<double> extQ = cardinality_->QueryExtents(query);
  const double subset = std::max(1.0, cardinality_->SubsetSize(query));
  const auto min_count =
      MinCount(query.minsupp, static_cast<uint32_t>(subset));
  est.est_subset_size = subset;

  // The supported filter prunes on *global* counts vs. the absolute local
  // threshold (Lemma 4.4): its pass fraction is exact given the stored
  // support distribution.
  const double ss_pass = stats_->FractionWithCountAtLeast(min_count);
  const double qualified_frac = QualifiedFraction(query);
  double attr_frac = ItemAttrFraction(query);
  double rules_per = RulesPerItemset();
  const double avg_len = std::max(1.0, stats_->avg_itemset_length);
  const double m = stats_->num_records;

  // Constraint selectivity. Pushdown changes where work stops, and these
  // terms let the optimizer see that before running anything: CONTAIN pins
  // the search box to one cell per constrained attribute (the execution
  // narrows the R-tree descent the same way), EXCLUDE thins the surviving
  // candidate pool like the attribute filter does, and ANTECEDENT
  // ATTRIBUTES halves the viable antecedent/consequent partitions per item
  // expected to be pinned. All no-ops for unconstrained queries.
  const RuleConstraints& cons = query.constraints;
  if (!cons.Empty()) {
    const Schema& schema = cardinality_->schema();
    for (ItemId item : cons.must_contain) {
      const AttrId a = schema.AttrOfItem(item);
      const double domain =
          std::max<double>(1.0, schema.attribute(a).domain_size());
      if (a < extQ.size()) extQ[a] = std::min(extQ[a], 1.0 / domain);
    }
    if (!cons.must_exclude.empty()) {
      // A MIP avoids one excluded item with probability 1 - avg_len/|items|
      // under the uniform-item model; survivors multiply into the same
      // per-candidate filter term the attribute mask uses.
      const double num_items = std::max<double>(1.0, schema.num_items());
      const double per_item = std::min(1.0, avg_len / num_items);
      attr_frac *= std::pow(1.0 - per_item,
                            static_cast<double>(cons.must_exclude.size()));
    }
    if (!cons.antecedent_only.empty() && stats_->num_attributes > 0) {
      const double pinned_est =
          avg_len * static_cast<double>(cons.antecedent_only.size()) /
          static_cast<double>(stats_->num_attributes);
      rules_per *= std::pow(2.0, -pinned_est);
    }
    if (cons.min_antecedent_supp > 0.0) {
      // The antecedent floor prunes rule partitions before the confidence
      // check; under uniform overlap the antecedent's local support tracks
      // its global one, so the survival fraction comes straight off the
      // stored support distribution — same machinery as minsupp.
      rules_per *= stats_->FractionWithCountAtLeast(
          MinCount(cons.min_antecedent_supp, stats_->num_records));
    }
  }

  // SELECT runs one route: a row scan of the relation when cold, or, on a
  // session-cache hint, what the cache actually does — copying the cached
  // tid list on an exact hit, re-testing each cached record on a
  // containment hit, walking the summed sorted runs of a tier-2.5
  // composition (hint->cached_size covers all three). The term is
  // plan-uniform, so its accuracy never sways plan choice — only the
  // absolute estimate.
  if (hint != nullptr && hint->tier != CacheTier::kNone) {
    est.select = hint->cached_size * constants_.select_record_ns;
  } else {
    est.select = m * constants_.select_record_ns;
  }

  const bool supported = kind == PlanKind::kSSEV || kind == PlanKind::kSSVS ||
                         kind == PlanKind::kSSEUV;

  // The record-level terms follow the route the estimated |DQ| selects,
  // by the density predicate execution uses (a bitmap DQ is built for the
  // index plans, never for ARM).
  //
  // ELIMINATE walks the closed IT-tree. Under uniform overlap a prefix's
  // local count tracks its global one, so the walk enters the children of
  // the prefixes whose global count clears the query's global-equivalent
  // threshold (the stored prefix-support histogram), and each entered node
  // intersects its parent's records: on a dense DQ an AND plus a popcount
  // over the relation's words, on a sparse one a column probe per record
  // of the parent, a |DQ|/|D| share of its global count. The walk skips
  // paths without a candidate, so it scales with the candidates' share of
  // the MIPs.
  //
  // VERIFY: the row probe's subset-mask pass tests every item of the
  // itemset on every record; on a dense DQ the lattice DFS runs one AND
  // per subset of the itemset (~2^len = rules_per + 2 nodes), floored at
  // the row probe, which the counter falls back to when the lattice is
  // the costlier route.
  constexpr double kWalkWordPasses = 2.0;
  const bool dense =
      kind != PlanKind::kARM &&
      IsDense(static_cast<uint64_t>(subset), stats_->num_records);
  const double words =
      std::ceil(m / static_cast<double>(Bitmap::kBitsPerWord));
  const IndexStats::WalkSize walk =
      stats_->WalkAtLeast(MinCount(query.minsupp, stats_->num_records));
  const double full_walk =
      dense ? walk.nodes * kWalkWordPasses * words * constants_.bitmap_word_ns
            : walk.parent_records * (subset / m) *
                  constants_.record_item_check_ns;
  auto walk_cost = [&](double walked) {
    const double mips = std::max(1.0, static_cast<double>(stats_->num_mips));
    return std::min(1.0, walked / mips) * full_walk;
  };
  const double probe_verify_scan =
      subset * avg_len * constants_.record_item_check_ns;
  const double verify_scan_per_itemset =
      dense ? std::min((rules_per + 2.0) * words * constants_.bitmap_word_ns,
                       probe_verify_scan)
            : probe_verify_scan;
  const double verify_per_itemset =
      verify_scan_per_itemset + rules_per * constants_.rule_check_ns;

  double candidates = ExpectedCandidates(extQ);
  if (supported) candidates *= ss_pass;
  est.est_candidates = candidates;
  est.est_contained = candidates * ContainedFraction(extQ);
  est.est_qualified = candidates * qualified_frac * attr_frac;

  switch (kind) {
    case PlanKind::kSEV:
    case PlanKind::kSVS:
    case PlanKind::kSSEV:
    case PlanKind::kSSVS: {
      est.search = ExpectedNodeAccesses(extQ, supported ? ss_pass : 1.0) *
                   constants_.rtree_box_check_ns * stats_->rtree_fanout;
      est.eliminate = walk_cost(candidates * attr_frac);
      est.verify = est.est_qualified * verify_per_itemset;
      if (kind == PlanKind::kSVS || kind == PlanKind::kSSVS) {
        // SUPPORTED-VERIFY runs ELIMINATE's walk and VERIFY's step per
        // qualifier, fused into one stage: the same work,
        // reported where execution times it. The total below adds the two
        // stages first, so the fused plan prices bit for bit like its
        // unfused twin, and the tie keeps the earlier (unfused) plan.
        est.verify = est.eliminate + est.verify;
        est.eliminate = 0.0;
      }
      break;
    }
    case PlanKind::kSSEUV: {
      est.search = ExpectedNodeAccesses(extQ, ss_pass) *
                   constants_.rtree_box_check_ns * stats_->rtree_fanout;
      const double overlapped = std::max(0.0, candidates - est.est_contained);
      est.eliminate =
          walk_cost(overlapped * attr_frac) + constants_.union_const_ns;
      est.verify = est.est_qualified * verify_per_itemset;
      break;
    }
    case PlanKind::kARM: {
      // Eq. 6 refined: besides the |DQ| x width term (vertical-view build
      // and base scans), from-scratch mining explores the local closed-
      // itemset lattice, whose size we estimate from the stored support
      // distribution (local support fractions track global ones under
      // uniform overlap). Each lattice node costs a few tidset
      // intersections of length O(|DQ|).
      constexpr double kLatticeBranching = 8.0;
      const double est_local_cfis = stats_->num_mips * qualified_frac;
      est.mine = subset * stats_->num_attributes * constants_.mine_cell_ns +
                 (est_local_cfis + 1.0) * kLatticeBranching * subset *
                     constants_.mine_cell_ns;
      est.verify = est.est_qualified * verify_per_itemset;
      break;
    }
  }

  est.total =
      est.select + est.search + (est.eliminate + est.verify) + est.mine;
  return est;
}

std::array<PlanCostEstimate, 6> CostModel::EstimateAll(
    const LocalizedQuery& query, const CacheHint* hint) const {
  std::array<PlanCostEstimate, 6> all;
  for (size_t i = 0; i < kAllPlans.size(); ++i) {
    all[i] = Estimate(kAllPlans[i], query, hint);
  }
  return all;
}

}  // namespace colarm
