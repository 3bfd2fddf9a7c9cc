#include "core/optimizer.h"

namespace colarm {

OptimizerDecision Optimizer::Choose(const LocalizedQuery& query) const {
  OptimizerDecision decision;
  if (!query.constraints.Empty()) {
    decision.constraints =
        query.constraints.ToString(model_.cardinality().schema());
  }
  decision.estimates = model_.EstimateAll(query);
  double best = decision.estimates[0].total;
  decision.chosen = decision.estimates[0].plan;
  for (const PlanCostEstimate& est : decision.estimates) {
    if (est.total < best) {
      best = est.total;
      decision.chosen = est.plan;
    }
  }
  return decision;
}

}  // namespace colarm
