#ifndef COLARM_CORE_EXPLAIN_H_
#define COLARM_CORE_EXPLAIN_H_

#include <string>

#include "core/engine.h"

namespace colarm {

/// Multi-line table of the optimizer's per-plan estimates with the chosen
/// plan marked (the EXPLAIN output).
std::string FormatDecision(const OptimizerDecision& decision);

/// Renders the paper's Table 4 (the plan / optimization / cost summary).
std::string FormatPlanSummaryTable();

/// Appends up to `limit` rules (0 = all), one "  <rule>\n" line each, in
/// the order the set holds them — ExecutePlan hands out canonical sets, so
/// an answer prints by descending support then confidence. Reserves the
/// whole listing once, then writes every rule straight into `out`.
void AppendRules(const Schema& schema, const RuleSet& rules, size_t limit,
                 std::string* out);

/// AppendRules into a fresh string.
std::string FormatRules(const Schema& schema, const RuleSet& rules,
                        size_t limit = 0);

/// One-paragraph execution report for a finished query (plan, timings,
/// rule count, optimizer agreement).
std::string FormatQueryResult(const Schema& schema, const QueryResult& result);

}  // namespace colarm

#endif  // COLARM_CORE_EXPLAIN_H_
