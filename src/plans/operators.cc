#include "plans/operators.h"

#include <algorithm>

#include "core/query_cache.h"
#include "mining/local_counter.h"

namespace colarm {

PlanContext::PlanContext(const MipIndex& index, const LocalizedQuery& query,
                         const RuleGenOptions& rulegen, ThreadPool* pool)
    : index(index), query(query), rulegen(rulegen), pool(pool) {
  const Schema& schema = index.dataset().schema();
  item_attr_mask = query.ItemAttrMask(schema);
  subset = FocalSubset::Materialize(index.dataset(), query.ToRect(schema),
                                    &record_checks);
  local_min_count =
      subset.size() == 0 ? 1 : MinCount(query.minsupp, subset.size());
  InitConstraints();
}

PlanContext::PlanContext(const MipIndex& index, const LocalizedQuery& query,
                         const RuleGenOptions& rulegen, FocalSubset shared,
                         ThreadPool* pool)
    : index(index), query(query), rulegen(rulegen), pool(pool) {
  item_attr_mask = query.ItemAttrMask(index.dataset().schema());
  subset = std::move(shared);
  local_min_count =
      subset.size() == 0 ? 1 : MinCount(query.minsupp, subset.size());
  InitConstraints();
}

void PlanContext::BuildDqBitmap() {
  const uint32_t universe = index.dataset().num_records();
  if (subset.size() == 0 || !IsDense(subset.size(), universe)) return;
  dq_bitmap = Bitmap::FromTids(subset.tids, universe);
}

void PlanContext::InitConstraints() {
  search_box = subset.box;
  const RuleConstraints& constraints = query.constraints;
  if (constraints.Empty()) return;
  const Schema& schema = index.dataset().schema();
  item_constrained = constraints.HasItemConstraints();
  constraints_precluded = query.ConstraintsPrecludeRules(schema);
  if (constraints_precluded) return;
  for (ItemId item : constraints.must_contain) {
    const ValueId value = schema.ValueOfItem(item);
    search_box.SetInterval(schema.AttrOfItem(item), value, value);
  }
}

bool PlanContext::MipAttrsAllowed(uint32_t mip_id) const {
  const Schema& schema = index.dataset().schema();
  for (ItemId item : index.mip(mip_id).items) {
    if (!item_attr_mask[schema.AttrOfItem(item)]) return false;
  }
  return true;
}

bool PlanContext::MipConstraintAllowed(uint32_t mip_id) const {
  if (!MipAttrsAllowed(mip_id)) return false;
  if (!item_constrained) return true;
  return ItemsetSatisfiesConstraints(index.mip(mip_id).items,
                                     query.constraints);
}

RuleGenFilter PlanContext::FilterForItemset(const Itemset& items) const {
  RuleGenFilter filter;
  const RuleConstraints& constraints = query.constraints;
  if (constraints.Empty()) return filter;
  filter.min_lift = constraints.min_lift;
  filter.min_cosine = constraints.min_cosine;
  filter.min_kulczynski = constraints.min_kulczynski;
  filter.min_antecedent_supp = constraints.min_antecedent_supp;
  if (!constraints.antecedent_only.empty()) {
    const Schema& schema = index.dataset().schema();
    // Positions past 31 cannot occur in enumeration (the generator skips
    // such itemsets), so the mask safely stops there.
    const size_t len = std::min<size_t>(items.size(), 31);
    for (size_t i = 0; i < len; ++i) {
      if (std::binary_search(constraints.antecedent_only.begin(),
                             constraints.antecedent_only.end(),
                             schema.AttrOfItem(items[i]))) {
        filter.pinned_mask |= 1u << i;
      }
    }
  }
  return filter;
}

namespace {

// Chunk count for the record-level operator loops: a few chunks per worker
// for load balance (candidate costs vary with tidset sizes), coarse enough
// that per-chunk buffers stay cheap. 1 means "run the sequential path".
size_t OperatorChunks(const PlanContext& ctx, size_t n) {
  if (!IsParallel(ctx.pool) || n <= 1) return 1;
  return std::min(n, static_cast<size_t>(ctx.pool->parallelism()) * 4);
}

CandidateSet RunSearch(PlanContext* ctx, bool supported) {
  CandidateSet out;
  auto visitor = [&out](const RTreeEntry& entry, bool contained) {
    (contained ? out.contained : out.overlapped).push_back(entry.id);
  };
  // The CONTAIN-narrowed search box: contained-vs-overlapped stays sound
  // because containment in the narrowed box implies containment in the
  // focal box (Lemma 4.5 still applies).
  if (supported) {
    ctx->index.rtree().SearchSupported(ctx->search_box, ctx->local_min_count,
                                       visitor, &ctx->rtree_stats);
  } else {
    ctx->index.rtree().Search(ctx->search_box, visitor, &ctx->rtree_stats);
  }
  // Deterministic candidate order regardless of tree layout.
  std::sort(out.contained.begin(), out.contained.end());
  std::sort(out.overlapped.begin(), out.overlapped.end());
  return out;
}

}  // namespace

CandidateSet OpSearch(PlanContext* ctx) {
  return RunSearch(ctx, /*supported=*/false);
}

CandidateSet OpSupportedSearch(PlanContext* ctx) {
  return RunSearch(ctx, /*supported=*/true);
}

namespace {

// True when this execution both reads and records the session cache's
// per-(box, itemset) count memo.
bool MemoActive(const PlanContext& ctx) {
  return ctx.cache != nullptr && ctx.memo_txn != nullptr;
}

// Local support of one itemset within the focal subset: popcount(item-AND
// ∩ DQ) on a dense DQ, row probes on a sparse one. `scratch` (one per
// candidate range, sized to the DQ bitmap when there is one) keeps the
// candidate loops allocation-free. The caller charges the pass.
uint32_t FullLocalCount(const PlanContext& ctx, const Itemset& items,
                        Bitmap* scratch) {
  if (const Bitmap* dq = ctx.dq(); dq != nullptr) {
    return BitmapLocalCount(ctx.index.vertical(), *dq, items, scratch);
  }
  const Dataset& dataset = ctx.index.dataset();
  uint32_t count = 0;
  for (Tid t : ctx.subset.tids) {
    if (dataset.ContainsAll(t, items)) ++count;
  }
  return count;
}

// Bitmap scratch for FullLocalCount over one candidate range.
Bitmap CountScratch(const PlanContext& ctx) {
  return ctx.dq() != nullptr ? Bitmap(ctx.dq()->size()) : Bitmap();
}

// Sequential ELIMINATE body over one candidate range; the parallel path
// runs it per chunk with chunk-local outputs. Each counted candidate is
// charged one pass over the focal subset.
void EliminateRange(PlanContext* ctx, std::span<const uint32_t> candidates,
                    std::vector<QualifiedItemset>* qualified,
                    uint64_t* record_checks) {
  const bool memo = MemoActive(*ctx);
  Bitmap scratch = CountScratch(*ctx);
  for (uint32_t id : candidates) {
    ThrowIfCancelled(ctx->cancel);
    if (!ctx->MipConstraintAllowed(id)) continue;
    const Mip& mip = ctx->index.mip(id);
    if (memo) {
      auto hit = ctx->cache->MemoLookup(ctx->memo_txn->box_key(),
                                        ctx->memo_txn->constraint_key(), id);
      if (hit != nullptr) {
        // The memoized count replaces the scan; the semantic price (one
        // pass over the focal subset) is charged as if it ran, keeping the
        // effort counters byte-identical to cold execution.
        ctx->cache->NoteMemoServed();
        *record_checks += ctx->subset.tids.size();
        if (hit->full_count >= ctx->local_min_count) {
          qualified->push_back({id, hit->full_count});
        }
        continue;
      }
    }
    const uint32_t count = FullLocalCount(*ctx, mip.items, &scratch);
    *record_checks += ctx->subset.tids.size();
    if (memo) ctx->memo_txn->RecordFull(id, count);
    if (count >= ctx->local_min_count) {
      qualified->push_back({id, count});
    }
  }
}

}  // namespace

std::vector<QualifiedItemset> OpEliminate(
    PlanContext* ctx, std::span<const uint32_t> candidates) {
  std::vector<QualifiedItemset> qualified;
  const size_t chunks = OperatorChunks(*ctx, candidates.size());
  if (chunks <= 1) {
    EliminateRange(ctx, candidates, &qualified, &ctx->record_checks);
    return qualified;
  }

  // Candidates are sorted by mip_id, so concatenating chunk outputs in
  // chunk order reproduces the sequential qualified order exactly.
  std::vector<std::vector<QualifiedItemset>> parts(chunks);
  std::vector<uint64_t> checks(chunks, 0);
  ParallelChunks(ctx->pool, candidates.size(), chunks,
                 [&](size_t chunk, size_t begin, size_t end) {
                   EliminateRange(ctx, candidates.subspan(begin, end - begin),
                                  &parts[chunk], &checks[chunk]);
                 });
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    qualified.insert(qualified.end(), parts[chunk].begin(),
                     parts[chunk].end());
    ctx->record_checks += checks[chunk];
  }
  return qualified;
}

std::vector<QualifiedItemset> QualifyContained(
    PlanContext* ctx, std::span<const uint32_t> contained) {
  std::vector<QualifiedItemset> qualified;
  for (uint32_t id : contained) {
    if (!ctx->MipConstraintAllowed(id)) continue;
    const uint32_t count = ctx->index.mip(id).global_count;
    // Lemma 4.5: containment makes the local count equal the global one.
    // SUPPORTED-SEARCH already pruned counts below the threshold, but a
    // plain SEARCH caller still needs the comparison.
    if (count >= ctx->local_min_count) {
      qualified.push_back({id, count});
    }
  }
  return qualified;
}

std::vector<QualifiedItemset> OpUnion(std::vector<QualifiedItemset> a,
                                      std::vector<QualifiedItemset> b) {
  a.reserve(a.size() + b.size());
  for (QualifiedItemset& q : b) a.push_back(q);
  std::sort(a.begin(), a.end(),
            [](const QualifiedItemset& x, const QualifiedItemset& y) {
              return x.mip_id < y.mip_id;
            });
  return a;
}

namespace {

// Per-chunk state of the parallel VERIFY operators: each worker generates
// into its own rule buffer with its own effort counters, merged in chunk
// order (rules) and by summation (counters) — both reproduce the
// sequential result exactly.
struct VerifyShard {
  RuleSet rules;
  RuleGenStats rule_stats;
  uint64_t record_checks = 0;
};

// Records one cold-computed counter into the query's memo transaction: the
// subset table when the counter built one, otherwise just the full count
// (which still settles later ELIMINATE / disqualification).
void RecordCounter(PlanContext* ctx, uint32_t mip_id,
                   const LocalSubsetCounter& counter) {
  if (counter.has_subset_table()) {
    ctx->memo_txn->RecordTable(mip_id, counter.CountFull(),
                               counter.subset_table());
  } else {
    ctx->memo_txn->RecordFull(mip_id, counter.CountFull());
  }
}

// Replays a memoized subset-count table for one itemset: rule generation
// runs against O(1) lookups, charging the cold counter's one-pass price.
// False when the memo has no table for it (the cold path must run).
bool TryMemoVerify(PlanContext* ctx, uint32_t mip_id, const Itemset& items,
                   RuleSet* out, RuleGenStats* rule_stats,
                   uint64_t* record_checks) {
  auto hit = ctx->cache->MemoLookup(ctx->memo_txn->box_key(),
                                    ctx->memo_txn->constraint_key(), mip_id);
  if (hit == nullptr || hit->superset_counts.empty()) return false;
  ctx->cache->NoteMemoServed();
  MemoSubsetCounter counter(items, std::move(hit),
                            static_cast<uint32_t>(ctx->subset.tids.size()));
  GenerateRulesForItemset(counter, ctx->query.minconf, ctx->rulegen,
                          ctx->FilterForItemset(items), out, rule_stats);
  *record_checks += counter.record_checks();
  return true;
}

// The cold subset counter for one itemset: over the DQ bitmap's dense
// routes when the plan built it, row probes otherwise.
LocalSubsetCounter ColdCounter(const PlanContext& ctx, const Itemset& items) {
  return LocalSubsetCounter(ctx.index.dataset(), items, ctx.subset.tids,
                            &ctx.index.vertical(), ctx.dq());
}

void VerifyRange(PlanContext* ctx, std::span<const QualifiedItemset> qualified,
                 RuleSet* out, RuleGenStats* rule_stats,
                 uint64_t* record_checks) {
  const bool memo = MemoActive(*ctx);
  for (const QualifiedItemset& q : qualified) {
    ThrowIfCancelled(ctx->cancel);
    const Itemset& items = ctx->index.mip(q.mip_id).items;
    if (memo && TryMemoVerify(ctx, q.mip_id, items, out, rule_stats,
                              record_checks)) {
      continue;
    }
    const LocalSubsetCounter counter = ColdCounter(*ctx, items);
    GenerateRulesForItemset(counter, ctx->query.minconf, ctx->rulegen,
                            ctx->FilterForItemset(items), out, rule_stats);
    *record_checks += counter.record_checks();
    if (memo) RecordCounter(ctx, q.mip_id, counter);
  }
}

// One SUPPORTED-VERIFY candidate whose counter is in hand (cold or
// memo-replayed): the counter's full count decides qualification, then the
// same counter feeds rule generation.
template <typename Counter>
void SupportedVerifyOne(PlanContext* ctx, const Counter& counter, RuleSet* out,
                        RuleGenStats* rule_stats, uint64_t* record_checks) {
  *record_checks += counter.record_checks();
  if (counter.CountFull() < ctx->local_min_count) return;
  GenerateRulesForItemset(counter, ctx->query.minconf, ctx->rulegen,
                          ctx->FilterForItemset(counter.itemset()), out,
                          rule_stats);
}

// Cold SUPPORTED-VERIFY settles qualification with one FullLocalCount and
// builds the 2^L subset table only for candidates that qualify. Either way the candidate
// is charged the one focal-subset pass the table build would charge, so
// the effort counters do not depend on which candidates qualified.
void SupportedVerifyRange(PlanContext* ctx,
                          std::span<const uint32_t> candidates, RuleSet* out,
                          RuleGenStats* rule_stats, uint64_t* record_checks) {
  const bool memo = MemoActive(*ctx);
  Bitmap scratch = CountScratch(*ctx);
  for (uint32_t id : candidates) {
    ThrowIfCancelled(ctx->cancel);
    if (!ctx->MipConstraintAllowed(id)) continue;
    const Itemset& items = ctx->index.mip(id).items;
    bool known_qualified = false;
    if (memo) {
      auto hit = ctx->cache->MemoLookup(ctx->memo_txn->box_key(),
                                        ctx->memo_txn->constraint_key(), id);
      if (hit != nullptr && !hit->superset_counts.empty()) {
        ctx->cache->NoteMemoServed();
        MemoSubsetCounter counter(
            items, std::move(hit),
            static_cast<uint32_t>(ctx->subset.tids.size()));
        SupportedVerifyOne(ctx, counter, out, rule_stats, record_checks);
        continue;
      }
      if (hit != nullptr && hit->full_count < ctx->local_min_count) {
        // A full-count-only memo (ELIMINATE's, or a disqualified
        // SUPPORTED-VERIFY candidate's) settles disqualification; only a
        // qualifying candidate needs the table and falls through to the
        // cold pass.
        ctx->cache->NoteMemoServed();
        *record_checks += ctx->subset.tids.size();
        continue;
      }
      known_qualified = hit != nullptr;
    }
    if (!known_qualified) {
      const uint32_t count = FullLocalCount(*ctx, items, &scratch);
      if (count < ctx->local_min_count) {
        *record_checks += ctx->subset.tids.size();
        if (memo) ctx->memo_txn->RecordFull(id, count);
        continue;
      }
    }
    const LocalSubsetCounter counter = ColdCounter(*ctx, items);
    SupportedVerifyOne(ctx, counter, out, rule_stats, record_checks);
    if (memo) RecordCounter(ctx, id, counter);
  }
}

void MergeShards(PlanContext* ctx, std::vector<VerifyShard> shards,
                 RuleSet* out) {
  for (VerifyShard& shard : shards) {
    out->rules.insert(out->rules.end(),
                      std::make_move_iterator(shard.rules.rules.begin()),
                      std::make_move_iterator(shard.rules.rules.end()));
    ctx->rule_stats.rules_considered += shard.rule_stats.rules_considered;
    ctx->rule_stats.rules_emitted += shard.rule_stats.rules_emitted;
    ctx->rule_stats.itemsets_skipped += shard.rule_stats.itemsets_skipped;
    ctx->record_checks += shard.record_checks;
  }
}

}  // namespace

void OpVerify(PlanContext* ctx, std::span<const QualifiedItemset> qualified,
              RuleSet* out) {
  const size_t chunks = OperatorChunks(*ctx, qualified.size());
  if (chunks <= 1) {
    VerifyRange(ctx, qualified, out, &ctx->rule_stats, &ctx->record_checks);
    return;
  }
  std::vector<VerifyShard> shards(chunks);
  ParallelChunks(ctx->pool, qualified.size(), chunks,
                 [&](size_t chunk, size_t begin, size_t end) {
                   VerifyShard& shard = shards[chunk];
                   VerifyRange(ctx, qualified.subspan(begin, end - begin),
                               &shard.rules, &shard.rule_stats,
                               &shard.record_checks);
                 });
  MergeShards(ctx, std::move(shards), out);
}

void OpSupportedVerify(PlanContext* ctx, std::span<const uint32_t> candidates,
                       RuleSet* out) {
  const size_t chunks = OperatorChunks(*ctx, candidates.size());
  if (chunks <= 1) {
    SupportedVerifyRange(ctx, candidates, out, &ctx->rule_stats,
                         &ctx->record_checks);
    return;
  }
  std::vector<VerifyShard> shards(chunks);
  ParallelChunks(ctx->pool, candidates.size(), chunks,
                 [&](size_t chunk, size_t begin, size_t end) {
                   VerifyShard& shard = shards[chunk];
                   SupportedVerifyRange(
                       ctx, candidates.subspan(begin, end - begin),
                       &shard.rules, &shard.rule_stats, &shard.record_checks);
                 });
  MergeShards(ctx, std::move(shards), out);
}

namespace {

// The cold mining pass behind OpArmMine; its (deterministic) qualified set
// and local-CFI tally are what the ARM memo records and replays.
std::vector<QualifiedItemset> ArmMineCold(PlanContext* ctx) {
  std::vector<QualifiedItemset> qualified;

  // CONTAIN seeding: qualifying itemsets are supersets of must_contain, so
  // their supports within DQ equal their supports within the records of DQ
  // holding every CONTAIN item — mining that (often much smaller) seed
  // subset yields identical counts for every constraint-allowed MIP. The
  // restriction pass charges one focal-subset scan.
  std::span<const Tid> mine_tids = ctx->subset.tids;
  std::vector<Tid> seeded;
  if (ctx->item_constrained && !ctx->query.constraints.must_contain.empty()) {
    const Dataset& dataset = ctx->index.dataset();
    for (Tid t : ctx->subset.tids) {
      if (dataset.ContainsAll(t, ctx->query.constraints.must_contain)) {
        seeded.push_back(t);
      }
    }
    ctx->record_checks += ctx->subset.tids.size();
    if (seeded.empty()) return qualified;
    mine_tids = seeded;
  }

  // Traditional two-step mining over the extracted focal subset, with
  // EXCLUDE items dropped from the vertical view: they cannot appear in
  // any qualifying itemset, and projection preserves the support of every
  // itemset that avoids them, so CHARM skips their lattice branches.
  VerticalView local_view(ctx->index.dataset(), mine_tids);
  if (ctx->item_constrained && !ctx->query.constraints.must_exclude.empty()) {
    local_view.DropItems(ctx->query.constraints.must_exclude);
  }
  ITTree local_tree;
  std::vector<bool> seen(ctx->index.num_mips(), false);
  std::vector<uint32_t> hits;

  // The miner's closure callback is the finest interruption point the ARM
  // plan has — CHARM's recursion itself is not resumable.
  MineCharm(local_view, ctx->local_min_count,
            [&](const Itemset& items, const Tidset& tids) {
              ThrowIfCancelled(ctx->cancel);
              ++ctx->local_cfis;
              local_tree.Insert(items, static_cast<uint32_t>(tids.size()));
              // Intersect with the prestored family: every globally stored
              // CFI contained in this local CFI is locally frequent.
              ctx->index.ittree().ForEachSubsetOf(items, [&](uint32_t id) {
                if (!seen[id]) {
                  seen[id] = true;
                  hits.push_back(id);
                }
              });
            });

  std::sort(hits.begin(), hits.end());
  for (uint32_t id : hits) {
    if (!ctx->MipConstraintAllowed(id)) continue;
    // Local support of a stored CFI = support of its local closure.
    uint32_t count = local_tree.MaxSupersetCount(ctx->index.mip(id).items);
    qualified.push_back({id, count});
  }
  return qualified;
}

}  // namespace

std::vector<QualifiedItemset> OpArmMine(PlanContext* ctx) {
  if (ctx->subset.tids.empty()) return {};
  const bool memo = MemoActive(*ctx);
  if (memo) {
    auto hit = ctx->cache->ArmMemoLookup(ctx->memo_txn->box_key(),
                                         ctx->memo_txn->constraint_key(),
                                         ctx->local_min_count);
    if (hit != nullptr) {
      ctx->cache->NoteMemoServed();
      // The replay charges the cold pass's only record-level price: the
      // CONTAIN seeding scan over the focal subset.
      if (ctx->item_constrained &&
          !ctx->query.constraints.must_contain.empty()) {
        ctx->record_checks += ctx->subset.tids.size();
      }
      ctx->local_cfis = hit->local_cfis;
      std::vector<QualifiedItemset> qualified;
      qualified.reserve(hit->qualified.size());
      for (const auto& [id, count] : hit->qualified) {
        qualified.push_back({id, count});
      }
      return qualified;
    }
  }
  std::vector<QualifiedItemset> qualified = ArmMineCold(ctx);
  if (memo) {
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    pairs.reserve(qualified.size());
    for (const QualifiedItemset& q : qualified) {
      pairs.emplace_back(q.mip_id, q.local_count);
    }
    ctx->memo_txn->RecordArmMine(ctx->local_min_count, ctx->local_cfis,
                                 std::move(pairs));
  }
  return qualified;
}

}  // namespace colarm
