#ifndef COLARM_CORE_OPTIMIZER_H_
#define COLARM_CORE_OPTIMIZER_H_

#include <array>

#include "cost/cost_model.h"

namespace colarm {

/// The optimizer's verdict for one query: the chosen plan plus the full
/// per-plan estimate table (for EXPLAIN and accuracy studies).
struct OptimizerDecision {
  PlanKind chosen = PlanKind::kSEV;
  std::array<PlanCostEstimate, 6> estimates;
  /// Constraint provenance: the rendered constraint clauses the estimates
  /// priced in (selectivity-aware terms); empty for unconstrained queries.
  std::string constraints;

  const PlanCostEstimate& chosen_estimate() const {
    return estimates[static_cast<size_t>(chosen)];
  }
};

/// The COLARM cost-based optimizer: evaluates the six closed-form plan
/// cost formulas and picks the minimum (Section 3.1). Stateless beyond the
/// cost model it wraps; Choose() is constant time.
class Optimizer {
 public:
  explicit Optimizer(CostModel model) : model_(std::move(model)) {}

  OptimizerDecision Choose(const LocalizedQuery& query) const;

  const CostModel& cost_model() const { return model_; }

 private:
  CostModel model_;
};

}  // namespace colarm

#endif  // COLARM_CORE_OPTIMIZER_H_
