#include "core/explain.h"

#include <algorithm>

#include "common/string_util.h"

namespace colarm {

std::string FormatDecision(const OptimizerDecision& decision) {
  std::string out =
      "plan      est-total-ms   search-ms  eliminate-ms  verify-ms   mine-ms\n";
  for (const PlanCostEstimate& est : decision.estimates) {
    out += StrFormat("%-9s %12.4f %11.4f %13.4f %10.4f %9.4f%s\n",
                     PlanKindName(est.plan), est.total / 1e6, est.search / 1e6,
                     est.eliminate / 1e6, est.verify / 1e6, est.mine / 1e6,
                     est.plan == decision.chosen ? "   <== chosen" : "");
  }
  if (!decision.constraints.empty()) {
    std::string clauses = decision.constraints;
    if (clauses.rfind(" AND ", 0) == 0) clauses.erase(0, 5);
    out += "constraints pushed into plan: " + clauses + "\n";
  }
  if (decision.cache.tier != CacheTier::kNone) {
    out += StrFormat(
        "select served by session cache: %s of a %.0f-record cached subset",
        CacheTierName(decision.cache.tier), decision.cache.cached_size);
    if (decision.cache.tier == CacheTier::kContainment) {
      out += StrFormat(" (%u narrowed attribute(s))",
                       decision.cache.delta_attrs);
    }
    out += "\n";
  }
  return out;
}

std::string FormatPlanSummaryTable() {
  return
      "Mining Plan | Optimization                                        | "
      "Query Cost\n"
      "------------+-----------------------------------------------------+----"
      "-----------------------------\n"
      "S-E-V       | Basic SEARCH+ELIMINATE+VERIFY plan                  | "
      "COST(S) + COST(E) + COST(V)\n"
      "S-VS        | Selection push-up                                   | "
      "COST(S) + COST(VS)\n"
      "SS-E-V      | Supported R-tree filter                             | "
      "COST(SS) + COST(E) + COST(V)\n"
      "SS-VS       | Supported filter + selection push-up                | "
      "COST(SS) + COST(VS)\n"
      "SS-E-U-V    | Supported filter + containment/overlap distinction  | "
      "COST(SS) + COST(E) + COST(U) + COST(V)\n"
      "ARM         | Traditional rule mining over focal subset           | "
      "COST(sel) + COST(ARM)\n";
}

void AppendRules(const Schema& schema, const RuleSet& rules, size_t limit,
                 std::string* out) {
  const size_t total = rules.rules.size();
  const size_t shown = limit == 0 ? total : std::min(limit, total);
  // An upper bound from the itemset sizes alone, so reserving reads no
  // item: each label at its widest plus a separator, and the fixed text
  // with two "100.0" percentages. The unused tail is never written.
  size_t bound = 0;
  for (size_t i = 0; i < shown; ++i) {
    const Rule& rule = rules.rules[i];
    bound += 38 + (rule.antecedent.size() + rule.consequent.size()) *
                      (schema.widest_label() + 2);
  }
  out->reserve(out->size() + bound);
  for (size_t i = 0; i < shown; ++i) {
    out->append("  ");
    AppendRule(schema, rules.rules[i], out);
    out->push_back('\n');
  }
  if (total > shown) {
    out->append(StrFormat("  ... and %zu more rules\n", total - shown));
  }
}

std::string FormatRules(const Schema& schema, const RuleSet& rules,
                        size_t limit) {
  std::string out;
  AppendRules(schema, rules, limit, &out);
  return out;
}

std::string FormatQueryResult(const Schema& schema,
                              const QueryResult& result) {
  std::string out = StrFormat(
      "%zu localized rule(s) via plan %s%s in %.3f ms "
      "(|DQ|=%u, candidates=%llu, qualified=%llu)\n",
      result.rules.rules.size(), PlanKindName(result.plan_used),
      result.chosen_by_optimizer ? " (optimizer)" : " (forced)",
      result.stats.total_ms, result.stats.subset_size,
      static_cast<unsigned long long>(result.stats.candidates_search),
      static_cast<unsigned long long>(result.stats.candidates_qualified));
  if (!result.decision.constraints.empty()) {
    std::string clauses = result.decision.constraints;
    if (clauses.rfind(" AND ", 0) == 0) clauses.erase(0, 5);
    out += "  constraints: " + clauses + "\n";
  }
  const CacheTelemetry& c = result.cache;
  if (c.hits_exact + c.hits_containment + c.misses > 0) {
    out += StrFormat(
        "  session cache: exact=%llu containment=%llu misses=%llu "
        "resident=%llu bytes / %llu entries\n",
        static_cast<unsigned long long>(c.hits_exact),
        static_cast<unsigned long long>(c.hits_containment),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.bytes),
        static_cast<unsigned long long>(c.entries));
  }
  AppendRules(schema, result.rules, 10, &out);
  return out;
}

}  // namespace colarm
