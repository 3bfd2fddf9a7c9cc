#include "core/recommender.h"

#include <algorithm>

#include "common/string_util.h"
#include "plans/operators.h"

namespace colarm {

std::string RegionSuggestion::ToString(const Schema& schema) const {
  return StrFormat(
      "%s  [|DQ|=%u, fresh=%u (%.0f%%), score=%.1f]",
      query.ToString(schema).c_str(), subset_size, fresh_itemsets,
      freshness * 100.0, score);
}

std::vector<RegionSuggestion> ParameterRecommender::Suggest(
    const RecommenderOptions& options) const {
  std::vector<RegionSuggestion> suggestions;
  const Dataset& dataset = index_->dataset();
  const Schema& schema = dataset.schema();
  const uint32_t m = dataset.num_records();
  if (m == 0 || options.minsupp_grid.empty()) return suggestions;

  const double lowest_minsupp =
      *std::min_element(options.minsupp_grid.begin(),
                        options.minsupp_grid.end());

  for (AttrId attr = 0; attr < schema.num_attributes(); ++attr) {
    const uint32_t domain = schema.attribute(attr).domain_size();
    if (domain < options.min_windowable_domain) continue;
    const uint32_t windows = std::min(options.windows_per_attribute, domain);
    const uint32_t width = domain / windows;

    for (uint32_t w = 0; w < windows; ++w) {
      const auto lo = static_cast<ValueId>(w * width);
      const auto hi = static_cast<ValueId>(
          w + 1 == windows ? domain - 1 : (w + 1) * width - 1);

      LocalizedQuery probe;
      probe.ranges = {{attr, lo, hi}};
      probe.minsupp = lowest_minsupp;
      probe.minconf = options.minconf;
      PlanContext ctx(*index_, probe, RuleGenOptions{},
                      OpSelect(*index_, probe));
      if (ctx.subset.size() < 2) continue;

      // One SUPPORTED-SEARCH + one local counting pass at the lowest grid
      // threshold; every higher threshold is then evaluated from the same
      // counts for free.
      CandidateSet cands = OpSupportedSearch(&ctx);
      std::vector<QualifiedItemset> counted = OpEliminate(&ctx, cands.All());

      RegionSuggestion best;
      for (double minsupp : options.minsupp_grid) {
        const uint32_t local_min = MinCount(minsupp, ctx.subset.size());
        const uint32_t global_min = MinCount(minsupp, m);
        uint32_t fresh = 0;
        uint32_t qualified = 0;
        for (const QualifiedItemset& q : counted) {
          if (q.local_count < local_min) continue;
          // Itemsets need >= 2 items to ever produce a rule.
          if (index_->mip(q.mip_id).items.size() < 2) continue;
          ++qualified;
          if (index_->mip(q.mip_id).global_count < global_min) ++fresh;
        }
        if (fresh == 0) continue;
        // Prefer strict thresholds: the same fresh volume at a higher
        // minsupport is a stronger, cleaner signal.
        double score = fresh * minsupp;
        if (score > best.score) {
          best.query = probe;
          best.query.minsupp = minsupp;
          best.subset_size = ctx.subset.size();
          best.fresh_itemsets = fresh;
          best.freshness =
              qualified == 0 ? 0.0 : static_cast<double>(fresh) / qualified;
          best.score = score;
        }
      }
      if (best.score > 0.0) suggestions.push_back(std::move(best));
    }
  }

  std::sort(suggestions.begin(), suggestions.end(),
            [](const RegionSuggestion& a, const RegionSuggestion& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.subset_size > b.subset_size;
            });
  if (suggestions.size() > options.max_suggestions) {
    suggestions.resize(options.max_suggestions);
  }
  return suggestions;
}

}  // namespace colarm
