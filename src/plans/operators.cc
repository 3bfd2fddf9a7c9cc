#include "plans/operators.h"

#include <algorithm>

#include "core/query_cache.h"
#include "mining/local_counter.h"

namespace colarm {

PlanContext::PlanContext(const MipIndex& index, const LocalizedQuery& query,
                         const RuleGenOptions& rulegen, FocalSubset selected,
                         ThreadPool* pool)
    : index(index),
      query(query),
      rulegen(rulegen),
      pool(pool),
      subset(std::move(selected)) {
  const Schema& schema = index.dataset().schema();
  item_attr_mask = query.ItemAttrMask(schema);
  local_min_count =
      subset.size() == 0 ? 1 : MinCount(query.minsupp, subset.size());
  search_box = subset.box;
  const RuleConstraints& constraints = query.constraints;
  if (constraints.Empty()) return;
  item_constrained = constraints.HasItemConstraints();
  constraints_precluded = query.ConstraintsPrecludeRules(schema);
  if (constraints_precluded) return;
  for (ItemId item : constraints.must_contain) {
    const ValueId value = schema.ValueOfItem(item);
    search_box.SetInterval(schema.AttrOfItem(item), value, value);
  }
}

void PlanContext::BuildDqBitmap() {
  const uint32_t universe = index.dataset().num_records();
  if (subset.size() == 0 || !IsDense(subset.size(), universe)) return;
  dq_bitmap = Bitmap::FromTids(subset.tids, universe);
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

FocalSubset OpSelect(const MipIndex& index, const LocalizedQuery& query,
                     uint64_t* record_checks) {
  return FocalSubset::Materialize(
      index.dataset(), query.ToRect(index.dataset().schema()), record_checks);
}

CandidateSet OpSearch(PlanContext* ctx) {
  return RunSearch(ctx, /*supported=*/false);
}

CandidateSet OpSupportedSearch(PlanContext* ctx) {
  return RunSearch(ctx, /*supported=*/true);
}

namespace {

// What one candidate range produced: qualified itemsets (ELIMINATE), rules
// (VERIFY, SUPPORTED-VERIFY), and the effort counters it charged.
struct Shard {
  std::vector<QualifiedItemset> qualified;
  RuleSet rules;
  RuleGenStats rule_stats;
  uint64_t record_checks = 0;

  // Appends the output of the range that follows this one.
  void Append(Shard&& next) {
    qualified.insert(qualified.end(), next.qualified.begin(),
                     next.qualified.end());
    rules.rules.insert(rules.rules.end(),
                       std::make_move_iterator(next.rules.rules.begin()),
                       std::make_move_iterator(next.rules.rules.end()));
    rule_stats.Add(next.rule_stats);
    record_checks += next.record_checks;
  }
};

// The one candidate loop of the record-level operators: runs `body(range,
// shard)` over all candidates as one range, or, on a parallel pool, over a
// few chunks per worker (candidate costs vary with tidset sizes) with one
// shard each, appended in chunk order. Candidates are sorted by MIP id, so
// rules, their order before canonicalization and every effort counter are
// byte-identical to the sequential run. Charges the counters to `ctx` and
// returns the outputs.
template <typename T, typename Body>
Shard ForEachCandidate(PlanContext* ctx, std::span<const T> candidates,
                       const Body& body) {
  const size_t n = candidates.size();
  const size_t chunks =
      IsParallel(ctx->pool) && n > 1
          ? std::min(n, static_cast<size_t>(ctx->pool->parallelism()) * 4)
          : 1;
  std::vector<Shard> shards(chunks);
  ParallelChunks(ctx->pool, n, chunks,
                 [&](size_t chunk, size_t begin, size_t end) {
                   body(candidates.subspan(begin, end - begin),
                        &shards[chunk]);
                 });
  for (size_t chunk = 1; chunk < chunks; ++chunk) {
    shards.front().Append(std::move(shards[chunk]));
  }
  Shard& all = shards.front();
  ctx->record_checks += all.record_checks;
  ctx->rule_stats.Add(all.rule_stats);
  return std::move(all);
}

// The committed memo for one candidate, null on a miss or without a memo.
std::shared_ptr<const CountMemoEntry> MemoOf(const PlanContext& ctx,
                                             uint32_t mip_id) {
  return ctx.memo_txn != nullptr ? ctx.memo_txn->Lookup(mip_id) : nullptr;
}

// ELIMINATE's per-candidate count: the memo's full count when `memo` holds
// one, otherwise a cold count (bitmap on a dense DQ, row probes on a sparse
// one) recorded into the memo. Charged one focal-subset pass either way.
uint32_t CandidateCount(const PlanContext& ctx, uint32_t mip_id,
                        const CountMemoEntry* memo, Bitmap* scratch,
                        uint64_t* record_checks) {
  *record_checks += ctx.subset.tids.size();
  if (memo != nullptr) return memo->full_count;
  const uint32_t count =
      LocalCount(ctx.index.dataset(), ctx.subset.tids, &ctx.index.vertical(),
                 ctx.dq(), ctx.index.mip(mip_id).items, scratch);
  if (ctx.memo_txn != nullptr) ctx.memo_txn->RecordFull(mip_id, count);
  return count;
}

// VERIFY's per-itemset step: rule generation over the memo's subset table
// when `memo` holds one, otherwise over a cold counter (the lattice DFS on
// a dense DQ's bitmap, row probes otherwise) whose counts go to the memo.
// Returns the counter's record checks for the caller to charge.
uint64_t VerifyItemset(const PlanContext& ctx, uint32_t mip_id,
                       const CountMemoEntry* memo, Shard* shard) {
  const Itemset& items = ctx.index.mip(mip_id).items;
  const bool replay = memo != nullptr && !memo->superset_counts.empty();
  if (replay) ctx.memo_txn->NoteServed();
  const LocalSubsetCounter counter =
      replay ? LocalSubsetCounter(items, ctx.subset.tids,
                                  memo->superset_counts)
             : LocalSubsetCounter(ctx.index.dataset(), items, ctx.subset.tids,
                                  &ctx.index.vertical(), ctx.dq());
  GenerateRulesForItemset(counter, ctx.query.minconf, ctx.rulegen,
                          ctx.FilterForItemset(items), &shard->rules,
                          &shard->rule_stats);
  if (!replay && ctx.memo_txn != nullptr) {
    if (counter.has_subset_table()) {
      ctx.memo_txn->RecordTable(mip_id, counter.CountFull(),
                                counter.subset_table());
    } else {
      ctx.memo_txn->RecordFull(mip_id, counter.CountFull());
    }
  }
  return counter.record_checks();
}

}  // namespace

std::vector<QualifiedItemset> OpEliminate(
    PlanContext* ctx, std::span<const uint32_t> candidates) {
  return ForEachCandidate(
             ctx, candidates,
             [ctx](std::span<const uint32_t> range, Shard* shard) {
               Bitmap scratch;
               for (uint32_t id : range) {
                 ThrowIfCancelled(ctx->cancel);
                 if (!ctx->MipConstraintAllowed(id)) continue;
                 const auto memo = MemoOf(*ctx, id);
                 const uint32_t count = CandidateCount(
                     *ctx, id, memo.get(), &scratch, &shard->record_checks);
                 if (memo != nullptr) ctx->memo_txn->NoteServed();
                 if (count >= ctx->local_min_count) {
                   shard->qualified.push_back({id, count});
                 }
               }
             })
      .qualified;
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

// Appends an operator's rules to the caller's set.
void AppendRules(RuleSet rules, RuleSet* out) {
  if (out->rules.empty()) {
    out->rules = std::move(rules.rules);
    return;
  }
  out->rules.insert(out->rules.end(),
                    std::make_move_iterator(rules.rules.begin()),
                    std::make_move_iterator(rules.rules.end()));
}

}  // namespace

void OpVerify(PlanContext* ctx, std::span<const QualifiedItemset> qualified,
              RuleSet* out) {
  AppendRules(
      ForEachCandidate(
          ctx, qualified,
          [ctx](std::span<const QualifiedItemset> range, Shard* shard) {
            for (const QualifiedItemset& q : range) {
              ThrowIfCancelled(ctx->cancel);
              shard->record_checks += VerifyItemset(
                  *ctx, q.mip_id, MemoOf(*ctx, q.mip_id).get(), shard);
            }
          })
          .rules,
      out);
}

// ELIMINATE's count settles each candidate's qualification; a qualifier
// then takes VERIFY's step, whose full-count pass the count has already
// charged. So the price is ELIMINATE's, plus VERIFY's beyond that pass,
// whichever candidates qualify. The memo counts a hit when it saves a
// pass: a disqualifying full count, or a qualifier's subset table.
void OpSupportedVerify(PlanContext* ctx, std::span<const uint32_t> candidates,
                       RuleSet* out) {
  AppendRules(
      ForEachCandidate(
          ctx, candidates,
          [ctx](std::span<const uint32_t> range, Shard* shard) {
            Bitmap scratch;
            for (uint32_t id : range) {
              ThrowIfCancelled(ctx->cancel);
              if (!ctx->MipConstraintAllowed(id)) continue;
              const auto memo = MemoOf(*ctx, id);
              const uint32_t count = CandidateCount(
                  *ctx, id, memo.get(), &scratch, &shard->record_checks);
              if (count < ctx->local_min_count) {
                if (memo != nullptr) ctx->memo_txn->NoteServed();
                continue;
              }
              shard->record_checks +=
                  VerifyItemset(*ctx, id, memo.get(), shard) -
                  ctx->subset.tids.size();
            }
          })
          .rules,
      out);
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
  CountMemoTxn* memo = ctx->memo_txn;
  if (memo != nullptr) {
    if (auto hit = memo->LookupArm(ctx->local_min_count); hit != nullptr) {
      memo->NoteServed();
      // The replay charges the cold pass's only record-level price: the
      // CONTAIN seeding scan over the focal subset.
      if (ctx->item_constrained &&
          !ctx->query.constraints.must_contain.empty()) {
        ctx->record_checks += ctx->subset.tids.size();
      }
      ctx->local_cfis = hit->local_cfis;
      return hit->qualified;
    }
  }
  std::vector<QualifiedItemset> qualified = ArmMineCold(ctx);
  if (memo != nullptr) {
    memo->RecordArmMine(ctx->local_min_count, ctx->local_cfis, qualified);
  }
  return qualified;
}

}  // namespace colarm
