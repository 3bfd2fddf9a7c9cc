#include "plans/plans.h"

#include "common/string_util.h"
#include "common/timer.h"

namespace colarm {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSEV:
      return "S-E-V";
    case PlanKind::kSVS:
      return "S-VS";
    case PlanKind::kSSEV:
      return "SS-E-V";
    case PlanKind::kSSVS:
      return "SS-VS";
    case PlanKind::kSSEUV:
      return "SS-E-U-V";
    case PlanKind::kARM:
      return "ARM";
  }
  return "?";
}

std::string PlanStats::ToString() const {
  return StrFormat(
      "%s: total=%.3fms (select=%.3f search=%.3f eliminate=%.3f "
      "verify=%.3f mine=%.3f) |DQ|=%u minCount=%u cands=%llu "
      "(contained=%llu) qualified=%llu recChecks=%llu rtreeNodes=%llu "
      "rules=%llu",
      PlanKindName(plan), total_ms, select_ms, search_ms, eliminate_ms,
      verify_ms, mine_ms, subset_size, local_min_count,
      static_cast<unsigned long long>(candidates_search),
      static_cast<unsigned long long>(candidates_contained),
      static_cast<unsigned long long>(candidates_qualified),
      static_cast<unsigned long long>(record_checks),
      static_cast<unsigned long long>(rtree_nodes_visited),
      static_cast<unsigned long long>(rules_emitted));
}

Result<PlanResult> ExecutePlan(PlanKind kind, const MipIndex& index,
                               const LocalizedQuery& query,
                               const RuleGenOptions& rulegen) {
  PlanExecOptions exec;
  exec.rulegen = rulegen;
  return ExecutePlan(kind, index, query, exec);
}

Result<PlanResult> ExecutePlan(PlanKind kind, const MipIndex& index,
                               const LocalizedQuery& query,
                               const PlanExecOptions& exec) {
  COLARM_RETURN_IF_ERROR(query.Validate(index.dataset().schema()));

  PlanResult result;
  PlanStats& stats = result.stats;
  stats.plan = kind;

  Timer total_timer;
  Timer stage;
  uint64_t select_checks = 0;
  PlanContext ctx(index, query, exec.rulegen,
                  OpSelect(index, query, &select_checks), exec.pool);
  ctx.record_checks = select_checks;
  // Plans that count records in DQ get its bitmap when DQ is dense; ARM
  // mines its own vertical view of DQ and verifies by row probes.
  if (kind != PlanKind::kARM && !ctx.constraints_precluded) {
    ctx.AdoptDqBitmap();
  }
  ctx.cancel = exec.cancel;
  stats.select_ms = stage.ElapsedMillis();
  stats.subset_size = ctx.subset.size();
  stats.local_min_count = ctx.local_min_count;

  // The plan kind picks each stage's operators: plain or supported SEARCH;
  // ELIMINATE, contained-then-ELIMINATE plus UNION, or SUPPORTED-VERIFY
  // fused into the VERIFY stage; or, for ARM, MINE in place of both.
  const bool supported = kind == PlanKind::kSSEV ||
                         kind == PlanKind::kSSVS || kind == PlanKind::kSSEUV;
  const bool fused = kind == PlanKind::kSVS || kind == PlanKind::kSSVS;

  // Cooperative cancellation: the driver polls once after SELECT, so a
  // request cancelled while queued or selecting skips SEARCH and mining;
  // the operator loops poll the token per candidate and unwind with
  // CancelledException (rethrown by ParallelChunks when the poll fires
  // inside a shard); the catch below converts the unwind into a Status so
  // callers never see an exception.
  try {
  ThrowIfCancelled(ctx.cancel);
  // Constraints that preclude every rule (contradictory CONTAIN/EXCLUDE, a
  // CONTAIN item outside the vocabulary or the focal box) short-circuit
  // the whole pipeline: the answer is empty before any search or scan.
  if (ctx.subset.size() > 0 && !ctx.constraints_precluded) {
    CandidateSet cands;
    std::vector<QualifiedItemset> qualified;
    if (kind == PlanKind::kARM) {
      stage.Restart();
      qualified = OpArmMine(&ctx);
      stats.mine_ms = stage.ElapsedMillis();
      stats.candidates_qualified = qualified.size();
      stats.local_cfis = ctx.local_cfis;
    } else {
      stage.Restart();
      cands = supported ? OpSupportedSearch(&ctx) : OpSearch(&ctx);
      stats.search_ms = stage.ElapsedMillis();
      stats.candidates_search = cands.total();
      stats.candidates_contained = cands.contained.Count();

      if (!fused) {
        stage.Restart();
        if (kind == PlanKind::kSSEUV) {
          // Contained MIPs skip the record-level support scan (Lemma 4.5);
          // only partially overlapped ones pass through ELIMINATE.
          qualified = OpUnion(QualifyContained(&ctx, cands.contained),
                              OpEliminate(&ctx, std::move(cands.overlapped)));
        } else {
          qualified = OpEliminate(&ctx, cands.All());
        }
        stats.eliminate_ms = stage.ElapsedMillis();
        stats.candidates_qualified = qualified.size();
      }
    }

    stage.Restart();
    if (fused) {
      OpSupportedVerify(&ctx, cands.All(), &result.rules);
    } else {
      OpVerify(&ctx, qualified, &result.rules);
    }
    stats.verify_ms = stage.ElapsedMillis();
  }
  } catch (const CancelledException&) {
    return Status::DeadlineExceeded(
        StrFormat("plan %s cancelled mid-execution", PlanKindName(kind)));
  }

  stats.record_checks = ctx.record_checks;
  stats.rtree_nodes_visited = ctx.rtree_stats.nodes_visited;
  stats.rtree_pruned_by_support = ctx.rtree_stats.entries_pruned_by_support;
  stats.rules_considered = ctx.rule_stats.rules_considered;
  stats.rules_emitted = ctx.rule_stats.rules_emitted;
  stats.itemsets_skipped = ctx.rule_stats.itemsets_skipped;
  result.rules.Canonicalize();
  stats.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace colarm
