#ifndef COLARM_PLANS_PLANS_H_
#define COLARM_PLANS_PLANS_H_

#include <array>
#include <string>

#include "common/cancel.h"
#include "common/status.h"
#include "mining/rule.h"
#include "plans/operators.h"

namespace colarm {

/// The six alternative mining plans of Table 4.
enum class PlanKind {
  kSEV = 0,    // SEARCH + ELIMINATE + VERIFY
  kSVS = 1,    // selection push-up: SEARCH + SUPPORTED-VERIFY
  kSSEV = 2,   // supported R-tree filter: SS + ELIMINATE + VERIFY
  kSSVS = 3,   // supported filter + push-up: SS + SUPPORTED-VERIFY
  kSSEUV = 4,  // supported filter + contained/overlap split: SS+E+U+V
  kARM = 5,    // traditional mining over the extracted focal subset
};

inline constexpr std::array<PlanKind, 6> kAllPlans = {
    PlanKind::kSEV,  PlanKind::kSVS,   PlanKind::kSSEV,
    PlanKind::kSSVS, PlanKind::kSSEUV, PlanKind::kARM,
};

const char* PlanKindName(PlanKind kind);

/// Per-execution instrumentation: stage wall times plus operator effort
/// counters (candidate counts, record-level checks, R-tree node visits).
struct PlanStats {
  PlanKind plan = PlanKind::kSEV;

  /// Wall time of the whole ExecutePlan call, from query validation through
  /// the canonicalized rule set (so it includes Canonicalize()).
  double total_ms = 0.0;
  double select_ms = 0.0;     // focal subset materialization / SELECT
  double search_ms = 0.0;     // SEARCH or SUPPORTED-SEARCH
  double eliminate_ms = 0.0;  // ELIMINATE (incl. contained qualification)
  double verify_ms = 0.0;     // VERIFY or SUPPORTED-VERIFY
  double mine_ms = 0.0;       // ARM's from-scratch mining

  uint32_t subset_size = 0;
  uint32_t local_min_count = 0;
  uint64_t candidates_search = 0;
  uint64_t candidates_contained = 0;
  uint64_t candidates_qualified = 0;
  uint64_t record_checks = 0;
  uint64_t rtree_nodes_visited = 0;
  uint64_t rtree_pruned_by_support = 0;
  uint64_t rules_considered = 0;
  uint64_t rules_emitted = 0;
  uint64_t itemsets_skipped = 0;
  uint64_t local_cfis = 0;  // ARM only

  std::string ToString() const;
};

struct PlanResult {
  RuleSet rules;
  PlanStats stats;
};

/// Everything that shapes one plan execution besides the query itself.
struct PlanExecOptions {
  RuleGenOptions rulegen;
  /// Worker pool for the record-level operators; null runs the exact
  /// sequential path. Parallel execution is byte-identical to sequential
  /// (rules, canonical order, and every effort counter).
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation (per-request deadlines, server shutdown).
  /// The record-level operators poll it at candidate granularity and the
  /// plan driver once after SELECT; when it fires, ExecutePlan returns
  /// Status kDeadlineExceeded instead of a result. Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Executes one plan end to end, SELECT included. All six plans return
/// the same rule set (the plan-equivalence invariant); they differ only in
/// cost profile.
Result<PlanResult> ExecutePlan(PlanKind kind, const MipIndex& index,
                               const LocalizedQuery& query,
                               const PlanExecOptions& exec);

/// Legacy-parameter convenience overload (tests and benches).
Result<PlanResult> ExecutePlan(PlanKind kind, const MipIndex& index,
                               const LocalizedQuery& query,
                               const RuleGenOptions& rulegen = {});

}  // namespace colarm

#endif  // COLARM_PLANS_PLANS_H_
