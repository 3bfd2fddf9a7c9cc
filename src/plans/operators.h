#ifndef COLARM_PLANS_OPERATORS_H_
#define COLARM_PLANS_OPERATORS_H_

#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "mining/rule_generator.h"
#include "mip/mip_index.h"
#include "plans/focal_subset.h"
#include "plans/query.h"

namespace colarm {

/// Output of the SEARCH / SUPPORTED-SEARCH operators: the MIPs whose
/// bounding boxes intersect the focal box, as two bitmaps over the MIP
/// ids, split by full containment (Lemma 4.5) vs. partial overlap. Plans
/// that do not exploit the split process their union. Read in id order,
/// the candidates come out in MIP-id order whatever the tree layout.
struct CandidateSet {
  Bitmap contained;
  Bitmap overlapped;

  uint64_t total() const { return contained.Count() + overlapped.Count(); }
  /// Every candidate, contained or overlapped.
  Bitmap All() const {
    Bitmap all = overlapped;
    all.OrWith(contained);
    return all;
  }
};

/// A candidate itemset that passed the local minsupport check, with its
/// exact local support count.
struct QualifiedItemset {
  uint32_t mip_id = 0;
  uint32_t local_count = 0;
};

/// Mutable per-query state shared by the operators of one plan execution:
/// the query, the materialized focal subset, and the effort counters the
/// plan statistics report.
struct PlanContext {
  const MipIndex& index;
  const LocalizedQuery& query;
  RuleGenOptions rulegen;

  /// Worker pool for the record-level operators (ELIMINATE's walk splits
  /// the IT-tree's first-level branches across it, VERIFY its qualified
  /// list). Null or 1-thread pools take the exact sequential code path.
  /// Parallel runs merge per-chunk buffers and counters in deterministic
  /// chunk order, so rules, their order before canonicalization, and every
  /// effort counter are byte-identical to the sequential execution.
  ThreadPool* pool = nullptr;

  /// The focal subset as a bitmap over the relation, SELECT's bitmap kept
  /// by AdoptDqBitmap() only when DQ is dense (IsDense) and the plan counts
  /// records in it; empty otherwise. Its presence selects the word-
  /// parallel record-level routes (ELIMINATE's walk keeps one bitmap per
  /// depth, the subset counter runs its lattice DFS); without it ELIMINATE
  /// keeps tid lists and VERIFY probes rows of `subset.tids`. Routes never
  /// change a count or an effort counter.
  Bitmap dq_bitmap;

  /// Cooperative cancellation: the operator loops poll it (ELIMINATE's walk
  /// per first-level branch, VERIFY per itemset) and unwind with
  /// CancelledException — inside a ParallelChunks shard the
  /// region rethrows it to the plan driver. Null = never cancelled.
  const CancelToken* cancel = nullptr;

  std::vector<bool> item_attr_mask;
  FocalSubset subset;
  uint32_t local_min_count = 0;

  /// Constraint pushdown state, derived once from query.constraints:
  /// `search_box` is the focal box with each CONTAIN item's attribute
  /// narrowed to its value (sound R-tree descent pruning — a MIP holding
  /// item (a, v) has a tight bbox pinned to [v, v] on a, so every
  /// CONTAIN-satisfying MIP survives the narrowed search);
  /// `item_constrained` gates the per-MIP CONTAIN/EXCLUDE filter; and
  /// `constraints_precluded` marks queries whose constraints guarantee an
  /// empty answer, which the plan driver short-circuits.
  Rect search_box;
  bool item_constrained = false;
  bool constraints_precluded = false;
  /// No item attribute is masked and no item constraint is set, so every
  /// MIP passes MipConstraintAllowed.
  bool all_mips_allowed = true;

  // Effort counters (accumulated across operators).
  uint64_t record_checks = 0;
  RTree::SearchStats rtree_stats;
  RuleGenStats rule_stats;
  uint64_t local_cfis = 0;  // ARM plan only

  /// Takes over the query's focal subset, selected by the caller (OpSelect
  /// or a batch-shared materialization, which also charge SELECT), and
  /// derives the absolute local support threshold. `subset.box` must equal
  /// the query's box.
  PlanContext(const MipIndex& index, const LocalizedQuery& query,
              const RuleGenOptions& rulegen, FocalSubset subset,
              ThreadPool* pool = nullptr);

  /// Moves SELECT's bitmap into `dq_bitmap` iff DQ is non-empty and dense.
  /// Plans that count records call it once after SELECT; ARM, which mines
  /// its own vertical view, never does.
  void AdoptDqBitmap();

  /// The dense-route DQ bitmap, or null when the record-level operators
  /// run as row probes.
  const Bitmap* dq() const {
    return dq_bitmap.size() == 0 ? nullptr : &dq_bitmap;
  }

  /// True iff every item of the MIP lies on an allowed item attribute.
  bool MipAttrsAllowed(uint32_t mip_id) const;

  /// MipAttrsAllowed plus the CONTAIN/EXCLUDE item constraints. Exact (not
  /// merely a pruning bound) because a rule's itemset is always the full
  /// MIP itemset, so ELIMINATE skips disallowed candidates before any
  /// record scan.
  bool MipConstraintAllowed(uint32_t mip_id) const;

  /// Rule-generation pushdown for one itemset: the positions of
  /// ANTECEDENT-ATTRIBUTES items (pinned to the antecedent side) plus the
  /// query's measure floors. Default-empty when the query is unconstrained.
  RuleGenFilter FilterForItemset(const Itemset& items) const;
};

/// SELECT: materializes the query's focal subset from the index's vertical
/// bitmaps (FocalSubset::Materialize), charging its cold record-check
/// price to `record_checks` when given.
FocalSubset OpSelect(const MipIndex& index, const LocalizedQuery& query,
                     uint64_t* record_checks = nullptr);

/// SEARCH: R-tree range search with the focal box (coarse filter).
CandidateSet OpSearch(PlanContext* ctx);

/// SUPPORTED-SEARCH: range search + the supported R-tree filter pruning
/// entries whose global count cannot reach the local minsupport.
CandidateSet OpSupportedSearch(PlanContext* ctx);

/// ELIMINATE: record-level local support check (plus item-attribute
/// filter) over the candidates set in `marks` (a bitmap over the MIP
/// ids), as one depth-first walk of the closed IT-tree that counts
/// each prefix on a path to a candidate once and cuts subtrees below the
/// local minimum count. Returns the qualifiers in MIP-id order with their
/// exact local counts; `record_checks` charges the records intersected
/// along the walk.
std::vector<QualifiedItemset> OpEliminate(PlanContext* ctx, Bitmap marks);

/// Lemma 4.5 shortcut used by SS-E-U-V: contained MIPs (a bitmap over the
/// MIP ids) qualify with local count == global count, no record scan (item
/// filter still applies).
std::vector<QualifiedItemset> QualifyContained(PlanContext* ctx,
                                               const Bitmap& contained);

/// UNION: merges mutually exclusive qualified lists (constant-time per
/// element, no dedup needed).
std::vector<QualifiedItemset> OpUnion(std::vector<QualifiedItemset> a,
                                      std::vector<QualifiedItemset> b);

/// VERIFY: generates rules from each qualified itemset and keeps those
/// meeting minconfidence (record-level antecedent counting).
void OpVerify(PlanContext* ctx, std::span<const QualifiedItemset> qualified,
              RuleSet* out);

/// SUPPORTED-VERIFY: ELIMINATE's walk settles the minsupport check, then
/// VERIFY generates the qualifiers' rules, as one stage.
void OpSupportedVerify(PlanContext* ctx, Bitmap candidates, RuleSet* out);

/// ARM: the traditional baseline — mines the focal subset from scratch
/// with CHARM, intersects the local CFIs with the prestored family (the
/// POQM contract), and verifies rules. Returns the qualified list so the
/// caller can pass it to OpVerify.
std::vector<QualifiedItemset> OpArmMine(PlanContext* ctx);

}  // namespace colarm

#endif  // COLARM_PLANS_OPERATORS_H_
