#include "plans/operators.h"

#include <algorithm>
#include <bit>

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
  all_mips_allowed =
      std::all_of(item_attr_mask.begin(), item_attr_mask.end(),
                  [](bool allowed) { return allowed; });
  local_min_count =
      subset.size() == 0 ? 1 : MinCount(query.minsupp, subset.size());
  search_box = subset.box;
  const RuleConstraints& constraints = query.constraints;
  if (constraints.Empty()) return;
  item_constrained = constraints.HasItemConstraints();
  all_mips_allowed = all_mips_allowed && !item_constrained;
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
  if (all_mips_allowed) return true;
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
  CandidateSet out = {Bitmap(ctx->index.num_mips()),
                      Bitmap(ctx->index.num_mips())};
  // The CONTAIN-narrowed search box: contained-vs-overlapped stays sound
  // because containment in the narrowed box implies containment in the
  // focal box (Lemma 4.5 still applies).
  if (supported) {
    ctx->index.rtree().SearchSupported(ctx->search_box, ctx->local_min_count,
                                       &out.contained, &out.overlapped,
                                       &ctx->rtree_stats);
  } else {
    ctx->index.rtree().Search(ctx->search_box, &out.contained,
                              &out.overlapped, &ctx->rtree_stats);
  }
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

// What one range of work produced: qualified itemsets (an ELIMINATE walk
// run), rules (a VERIFY chunk), and the effort counters it charged.
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

// VERIFY's loop over the qualified itemsets: runs `body(range, shard)`
// over all of them as one range, or, on a parallel pool, over a few chunks
// per worker (itemset costs vary with their lengths) with one shard each,
// appended in chunk order. Qualifiers are sorted by MIP id, so rules, their
// order before canonicalization and every effort counter are
// byte-identical to the sequential run. Charges the counters to `ctx` and
// returns the outputs.
template <typename Body>
Shard ForEachCandidate(PlanContext* ctx,
                       std::span<const QualifiedItemset> candidates,
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

// The first set bit of `marks` at or after `from`; marks.size() if none.
uint32_t NextMark(const Bitmap& marks, uint32_t from) {
  const uint64_t* words = marks.words();
  uint32_t word = from / Bitmap::kBitsPerWord;
  if (word >= marks.num_words()) return marks.size();
  uint64_t bits = words[word] & (~uint64_t{0} << (from % Bitmap::kBitsPerWord));
  while (bits == 0) {
    if (++word == marks.num_words()) return marks.size();
    bits = words[word];
  }
  return word * Bitmap::kBitsPerWord + std::countr_zero(bits);
}

// ELIMINATE as a depth-first walk of the closed IT-tree. The walk keeps
// the records of DQ holding each prefix on the current path, one level per
// depth: a bitmap on a dense DQ, a tid list on a sparse one. It enters a
// node only when a marked candidate lies in the node's entry range, counts
// the node's prefix with one intersection against its parent's level, and
// cuts the subtree when that count falls below the local minimum: a
// prefix's count bounds every count below it, so the cut is exact. A
// marked entry whose count clears the minimum qualifies with it.
//
// `record_checks` charges every entered node its parent's count, the
// records the intersection tests. The set of entered nodes depends only on
// the candidates and the counts, so the charge is the same on either
// route, at any thread count and on a replay.
class EliminateWalk {
 public:
  EliminateWalk(const PlanContext& ctx, const Bitmap& marks)
      : ctx_(ctx),
        nodes_(ctx.index.ittree().depth_first()),
        marks_(marks),
        counts_(ctx.index.ittree().max_depth() + 1, 0) {
    counts_[0] = static_cast<uint32_t>(ctx.subset.size());
    if (ctx.dq() != nullptr) {
      bitmaps_.resize(counts_.size());
    } else {
      tids_.resize(counts_.size());
    }
  }

  // Walks the depth-first positions [begin, end), whole first-level
  // subtrees, appending qualifiers in MIP-id order.
  void Run(uint32_t begin, uint32_t end, Shard* shard) {
    uint32_t next_mark =
        begin < end ? NextMark(marks_, nodes_[begin].entry_begin) : 0;
    uint32_t i = begin;
    while (i < end) {
      const ITTree::DepthFirstNode& node = nodes_[i];
      if (node.depth == 1) ThrowIfCancelled(ctx_.cancel);
      if (next_mark < node.entry_begin) {
        next_mark = NextMark(marks_, node.entry_begin);
      }
      if (next_mark >= node.entry_end) {
        i = node.subtree_end;
        continue;
      }
      shard->record_checks += counts_[node.depth - 1];
      const bool leaf = node.subtree_end == i + 1;
      const uint32_t count = leaf ? CountChild(node) : Descend(node);
      if (count < ctx_.local_min_count) {
        i = node.subtree_end;
        continue;
      }
      if (next_mark == node.entry_begin && node.entry != ITTree::kNoEntry) {
        shard->qualified.push_back({node.entry, count});
      }
      ++i;
    }
  }

 private:
  // The count of `node`'s prefix, without keeping its records (a leaf).
  uint32_t CountChild(const ITTree::DepthFirstNode& node) const {
    const uint32_t parent = node.depth - 1;
    if (!bitmaps_.empty()) {
      return static_cast<uint32_t>(Bitmap::AndCount(
          Level(parent), ctx_.index.vertical().item(node.item)));
    }
    const auto [column, value] = ColumnOf(node.item);
    uint32_t count = 0;
    for (Tid t : Tids(parent)) count += column[t] == value;
    return count;
  }

  // Keeps the records of `node`'s prefix at its depth; returns their count.
  uint32_t Descend(const ITTree::DepthFirstNode& node) {
    const uint32_t depth = node.depth;
    uint32_t count = 0;
    if (!bitmaps_.empty()) {
      Bitmap& out = bitmaps_[depth];
      if (out.size() == 0) out = Bitmap(ctx_.dq()->size());
      Bitmap::AndInto(Level(depth - 1), ctx_.index.vertical().item(node.item),
                      &out);
      count = static_cast<uint32_t>(out.Count());
    } else {
      const auto [column, value] = ColumnOf(node.item);
      std::vector<Tid>& out = tids_[depth];
      out.clear();
      for (Tid t : Tids(depth - 1)) {
        if (column[t] == value) out.push_back(t);
      }
      count = static_cast<uint32_t>(out.size());
    }
    counts_[depth] = count;
    return count;
  }

  const Bitmap& Level(uint32_t depth) const {
    return depth == 0 ? *ctx_.dq() : bitmaps_[depth];
  }
  std::span<const Tid> Tids(uint32_t depth) const {
    return depth == 0 ? std::span<const Tid>(ctx_.subset.tids)
                      : std::span<const Tid>(tids_[depth]);
  }
  std::pair<const ValueId*, ValueId> ColumnOf(ItemId item) const {
    const Dataset& dataset = ctx_.index.dataset();
    const Schema& schema = dataset.schema();
    return {dataset.Column(schema.AttrOfItem(item)).data(),
            schema.ValueOfItem(item)};
  }

  const PlanContext& ctx_;
  std::span<const ITTree::DepthFirstNode> nodes_;
  const Bitmap& marks_;
  std::vector<uint32_t> counts_;             // [depth] prefix count
  std::vector<Bitmap> bitmaps_;              // dense route, [depth]
  std::vector<std::vector<Tid>> tids_;       // sparse route, [depth]
};

// Splits the depth-first positions [1, size) at first-level subtree
// boundaries into at most `parts` runs of about equal node count.
std::vector<uint32_t> BranchRuns(std::span<const ITTree::DepthFirstNode> nodes,
                                 size_t parts) {
  const auto size = static_cast<uint32_t>(nodes.size());
  std::vector<uint32_t> cuts = {1};
  const double per_part = static_cast<double>(size - 1) / parts;
  for (uint32_t i = 1; i < size; i = nodes[i].subtree_end) {
    if (i > cuts.back() && i - 1 >= per_part * cuts.size()) cuts.push_back(i);
  }
  cuts.push_back(size);
  return cuts;
}

// VERIFY's per-itemset step: rule generation over a subset counter (the
// lattice DFS on a dense DQ's bitmap, row probes otherwise).
// Returns the counter's record checks for the caller to charge.
uint64_t VerifyItemset(const PlanContext& ctx, uint32_t mip_id, Shard* shard) {
  const Itemset& items = ctx.index.mip(mip_id).items;
  const LocalSubsetCounter counter(ctx.index.dataset(), items,
                                   ctx.subset.tids, &ctx.index.vertical(),
                                   ctx.dq());
  GenerateRulesForItemset(counter, ctx.query.minconf, ctx.rulegen,
                          ctx.FilterForItemset(items), &shard->rules,
                          &shard->rule_stats);
  return counter.record_checks();
}

}  // namespace

// Keeps the constraint-allowed candidates' marks and walks the IT-tree's
// first-level subtrees, on a parallel pool as a few runs per worker with
// one shard each, appended in run order. The index's IT-tree lists its
// MIPs depth-first in id order, so qualifiers come out in MIP-id order,
// and the shards' counters sum to the sequential walk's.
std::vector<QualifiedItemset> OpEliminate(PlanContext* ctx, Bitmap marks) {
  if (ctx->subset.size() == 0) return {};
  const ITTree& tree = ctx->index.ittree();
  if (!ctx->all_mips_allowed) {
    Bitmap allowed(marks.size());
    marks.ForEachSet([&](uint32_t id) {
      if (ctx->MipConstraintAllowed(id)) allowed.Set(id);
    });
    marks = std::move(allowed);
  }
  if (marks.Count() == 0) return {};
  const auto nodes = tree.depth_first();
  std::vector<QualifiedItemset> qualified;
  const uint32_t root_entry = nodes[0].entry;
  if (root_entry != ITTree::kNoEntry && marks.Test(root_entry) &&
      ctx->subset.size() >= ctx->local_min_count) {
    qualified.push_back(
        {root_entry, static_cast<uint32_t>(ctx->subset.size())});
  }
  const size_t parts =
      IsParallel(ctx->pool) ? static_cast<size_t>(ctx->pool->parallelism()) * 4
                            : 1;
  const std::vector<uint32_t> runs = BranchRuns(nodes, parts);
  std::vector<Shard> shards(runs.size() - 1);
  ParallelFor(ctx->pool, shards.size(), [&](size_t run) {
    EliminateWalk walk(*ctx, marks);
    walk.Run(runs[run], runs[run + 1], &shards[run]);
  });
  for (Shard& shard : shards) {
    qualified.insert(qualified.end(), shard.qualified.begin(),
                     shard.qualified.end());
    ctx->record_checks += shard.record_checks;
  }
  return qualified;
}

std::vector<QualifiedItemset> QualifyContained(PlanContext* ctx,
                                               const Bitmap& contained) {
  std::vector<QualifiedItemset> qualified;
  contained.ForEachSet([&](uint32_t id) {
    if (!ctx->MipConstraintAllowed(id)) return;
    const uint32_t count = ctx->index.mip(id).global_count;
    // Lemma 4.5: containment makes the local count equal the global one.
    // SUPPORTED-SEARCH already pruned counts below the threshold, but a
    // plain SEARCH caller still needs the comparison.
    if (count >= ctx->local_min_count) {
      qualified.push_back({id, count});
    }
  });
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
              shard->record_checks += VerifyItemset(*ctx, q.mip_id, shard);
            }
          })
          .rules,
      out);
}

// The walk settles each candidate's qualification; a qualifier then takes
// VERIFY's step. So the price is ELIMINATE's plus VERIFY's, whichever
// candidates qualify.
void OpSupportedVerify(PlanContext* ctx, Bitmap candidates, RuleSet* out) {
  OpVerify(ctx, OpEliminate(ctx, std::move(candidates)), out);
}

std::vector<QualifiedItemset> OpArmMine(PlanContext* ctx) {
  std::vector<QualifiedItemset> qualified;
  if (ctx->subset.tids.empty()) return qualified;

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

}  // namespace colarm
