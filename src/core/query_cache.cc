#include "core/query_cache.h"

#include <algorithm>
#include <cstdint>

namespace colarm {

namespace {

// Fixed per-structure overheads folded into the byte accounting: map node,
// key, bookkeeping. Exactness does not matter — determinism across
// thread counts does, and both terms depend only on logical content.
constexpr size_t kEntryOverhead = 64;
constexpr size_t kMemoOverhead = 48;

size_t SubsetBytes(const FocalSubset& subset) {
  return kEntryOverhead + subset.box.dims() * 2 * sizeof(ValueId) +
         subset.tids.size() * sizeof(Tid);
}

size_t MemoBytes(const std::string& constraint_key,
                 const CountMemoEntry& memo) {
  return kMemoOverhead + constraint_key.size() +
         memo.superset_counts.size() * sizeof(uint32_t);
}

size_t ArmMemoBytes(const std::string& constraint_key,
                    const ArmMemoEntry& memo) {
  return kMemoOverhead + constraint_key.size() +
         memo.qualified.size() * sizeof(QualifiedItemset);
}

// Same condition FocalSubset::Materialize scans (and prices) under.
bool BoxIsConstrained(const Schema& schema, const Rect& box) {
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (box.lo(a) != 0 || box.hi(a) != schema.attribute(a).domain_size() - 1) {
      return true;
    }
  }
  return false;
}

// Attributes whose interval in `box` is strictly narrower than in `outer`
// (the only ones a containment filter has to re-test).
std::vector<AttrId> NarrowedAttrs(const Rect& box, const Rect& outer) {
  std::vector<AttrId> narrowed;
  for (uint32_t d = 0; d < box.dims(); ++d) {
    if (box.lo(d) != outer.lo(d) || box.hi(d) != outer.hi(d)) {
      narrowed.push_back(static_cast<AttrId>(d));
    }
  }
  return narrowed;
}

// True iff `a` and `b` carry identical intervals on every axis except `d`.
bool EqualExceptAxis(const Rect& a, const Rect& b, uint32_t d) {
  for (uint32_t e = 0; e < a.dims(); ++e) {
    if (e == d) continue;
    if (a.lo(e) != b.lo(e) || a.hi(e) != b.hi(e)) return false;
  }
  return true;
}

uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// One slab candidate for the greedy interval cover.
struct SlabCandidate {
  int64_t lo = 0;
  int64_t hi = 0;
  const std::string* key = nullptr;
  size_t tids = 0;
};

// Deterministic greedy cover of [lo, hi] from `slabs` (each already known
// to lie inside the allowed region): at each sweep position take the
// reachable slab extending furthest right, key order breaking ties.
// Returns false when a gap is uncoverable. Overlap between chosen slabs is
// fine — both union and difference semantics tolerate it.
bool GreedyCover(int64_t lo, int64_t hi,
                 const std::vector<SlabCandidate>& slabs,
                 std::vector<const SlabCandidate*>* chosen) {
  int64_t cursor = lo;
  while (cursor <= hi) {
    const SlabCandidate* best = nullptr;
    for (const SlabCandidate& slab : slabs) {
      if (slab.lo > cursor || slab.hi < cursor) continue;
      if (best == nullptr || slab.hi > best->hi ||
          (slab.hi == best->hi && *slab.key < *best->key)) {
        best = &slab;
      }
    }
    if (best == nullptr) return false;
    chosen->push_back(best);
    cursor = best->hi + 1;
  }
  return true;
}

Rect IntersectionBox(const Rect& a, const Rect& b) {
  Rect out = a;
  for (uint32_t d = 0; d < a.dims(); ++d) {
    out.SetInterval(d, std::max(a.lo(d), b.lo(d)), std::min(a.hi(d), b.hi(d)));
  }
  return out;
}

}  // namespace

std::string CanonicalBoxKey(const Rect& box) {
  std::string key;
  key.reserve(box.dims() * 2 * sizeof(ValueId));
  for (uint32_t d = 0; d < box.dims(); ++d) {
    ValueId lo = box.lo(d);
    ValueId hi = box.hi(d);
    key.append(reinterpret_cast<const char*>(&lo), sizeof(ValueId));
    key.append(reinterpret_cast<const char*>(&hi), sizeof(ValueId));
  }
  return key;
}

std::shared_ptr<const CountMemoEntry> CountMemoTxn::Lookup(
    uint32_t mip_id) const {
  return cache_->MemoLookup(box_key_, constraint_key_, mip_id);
}

std::shared_ptr<const ArmMemoEntry> CountMemoTxn::LookupArm(
    uint32_t min_count) const {
  return cache_->ArmMemoLookup(box_key_, constraint_key_, min_count);
}

void CountMemoTxn::NoteServed() const { cache_->NoteMemoServed(); }

void CountMemoTxn::RecordTable(uint32_t mip_id, uint32_t full_count,
                               std::span<const uint32_t> superset_counts) {
  std::lock_guard<std::mutex> lock(mutex_);
  CountMemoEntry& entry = writes_[mip_id];
  entry.full_count = full_count;
  entry.superset_counts.assign(superset_counts.begin(), superset_counts.end());
}

void CountMemoTxn::RecordArmMine(uint32_t min_count, uint64_t local_cfis,
                                 std::vector<QualifiedItemset> qualified) {
  std::lock_guard<std::mutex> lock(mutex_);
  arm_writes_.emplace(min_count,
                      ArmMemoEntry{local_cfis, std::move(qualified)});
}

void QueryCache::FrequencySketch::Record(uint64_t hash) {
  for (uint32_t r = 0; r < kRows; ++r) {
    uint8_t& cell = counters[r][(hash >> (r * 16)) & (kColumns - 1)];
    if (cell < 255) ++cell;
  }
  if (++recordings >= kSketchDecayPeriod) {
    for (auto& row : counters) {
      for (uint8_t& cell : row) cell >>= 1;
    }
    recordings = 0;
  }
}

uint32_t QueryCache::FrequencySketch::Estimate(uint64_t hash) const {
  uint32_t freq = 255;
  for (uint32_t r = 0; r < kRows; ++r) {
    freq = std::min<uint32_t>(freq, counters[r][(hash >> (r * 16)) &
                                                (kColumns - 1)]);
  }
  return freq;
}

QueryCache::QueryCache(const MipIndex& index, QueryCacheOptions options)
    : index_(&index), options_(options) {}

QueryCache::ComposePlan QueryCache::PlanComposeLocked(const Rect& box) const {
  ComposePlan best;
  const double cold_cost = static_cast<double>(index_->dataset().num_records());

  // Tier 2: single-source containment filter — the resident containing
  // entry with the smallest subset (cheapest filter), key order breaking
  // ties. Stays ungated against the cold scan (pre-2.5 behavior).
  double filter_cost = 0.0;
  bool has_filter = false;
  {
    const Entry* src = nullptr;
    const std::string* src_key = nullptr;
    for (const auto& [key, entry] : entries_) {
      if (!entry.box.Contains(box)) continue;
      if (src == nullptr || entry.subset->tids.size() < src->subset->tids.size()) {
        src = &entry;
        src_key = &key;
      }
    }
    if (src != nullptr) {
      const std::vector<AttrId> narrowed = NarrowedAttrs(box, src->box);
      has_filter = true;
      filter_cost = static_cast<double>(src->subset->tids.size()) *
                    static_cast<double>(narrowed.size() + 1);
      best.shape = ComposePlan::Shape::kFilter;
      best.sources = {*src_key};
      best.residual_outer = src->box;
      best.delta_attrs = static_cast<uint32_t>(narrowed.size());
      best.summed_runs = static_cast<double>(src->subset->tids.size());
      best.cost = filter_cost;
    }
  }

  // Multi-source shapes enter only when strictly cheaper than both the
  // filter and the cold scan; ties keep the earlier (simpler) route. The
  // enumeration order (union by axis, difference by axis and outer key,
  // intersection by key-ordered pair) plus strict `<` makes the choice
  // deterministic.
  ComposePlan multi;
  double multi_cost = cold_cost;
  if (has_filter) multi_cost = std::min(multi_cost, filter_cost);
  auto consider = [&](ComposePlan&& plan) {
    if (plan.cost < multi_cost) {
      multi_cost = plan.cost;
      multi = std::move(plan);
    }
  };

  for (uint32_t d = 0; d < box.dims(); ++d) {
    // Axis union: resident slabs equal to `box` on every other axis whose
    // d-intervals lie inside and together cover box's d-interval — the
    // union of their tid lists is exactly T_box.
    std::vector<SlabCandidate> inside;
    for (const auto& [key, entry] : entries_) {
      if (!EqualExceptAxis(entry.box, box, d)) continue;
      if (entry.box.lo(d) >= box.lo(d) && entry.box.hi(d) <= box.hi(d)) {
        inside.push_back({entry.box.lo(d), entry.box.hi(d), &key,
                          entry.subset->tids.size()});
      }
    }
    if (!inside.empty()) {
      std::vector<const SlabCandidate*> chosen;
      if (GreedyCover(box.lo(d), box.hi(d), inside, &chosen)) {
        ComposePlan plan;
        plan.shape = ComposePlan::Shape::kUnion;
        double runs = 0.0;
        for (const SlabCandidate* slab : chosen) {
          plan.sources.push_back(*slab->key);
          runs += static_cast<double>(slab->tids);
        }
        plan.summed_runs = runs;
        plan.cost = runs;
        consider(std::move(plan));
      }
    }

    // Axis difference: an outer entry equal on the other axes whose
    // d-interval strictly contains box's, minus resident slabs exactly
    // tiling the two complement side intervals — T_outer stripped of every
    // record outside box's d-interval, i.e. exactly T_box.
    for (const auto& [outer_key, outer] : entries_) {
      if (!EqualExceptAxis(outer.box, box, d)) continue;
      if (outer.box.lo(d) > box.lo(d) || outer.box.hi(d) < box.hi(d)) continue;
      if (outer.box.lo(d) == box.lo(d) && outer.box.hi(d) == box.hi(d)) {
        continue;  // exact on this axis too: that is a tier-1 entry
      }
      std::vector<SlabCandidate> complement;
      for (const auto& [key, entry] : entries_) {
        if (!EqualExceptAxis(entry.box, box, d)) continue;
        const int64_t lo = entry.box.lo(d);
        const int64_t hi = entry.box.hi(d);
        const bool left = lo >= outer.box.lo(d) &&
                          hi < static_cast<int64_t>(box.lo(d));
        const bool right = lo > static_cast<int64_t>(box.hi(d)) &&
                           hi <= outer.box.hi(d);
        if (left || right) {
          complement.push_back({lo, hi, &key, entry.subset->tids.size()});
        }
      }
      std::vector<const SlabCandidate*> chosen;
      bool covered = true;
      if (outer.box.lo(d) < box.lo(d)) {
        covered = GreedyCover(outer.box.lo(d),
                              static_cast<int64_t>(box.lo(d)) - 1, complement,
                              &chosen);
      }
      if (covered && outer.box.hi(d) > box.hi(d)) {
        covered = GreedyCover(static_cast<int64_t>(box.hi(d)) + 1,
                              outer.box.hi(d), complement, &chosen);
      }
      if (!covered) continue;
      ComposePlan plan;
      plan.shape = ComposePlan::Shape::kDifference;
      plan.sources.push_back(outer_key);
      double runs = static_cast<double>(outer.subset->tids.size());
      for (const SlabCandidate* slab : chosen) {
        plan.sources.push_back(*slab->key);
        runs += static_cast<double>(slab->tids);
      }
      plan.summed_runs = runs;
      plan.cost = runs;
      consider(std::move(plan));
    }
  }

  // Pair intersection: two containing entries whose intersection box
  // narrows more axes than either alone — AND the tid lists, then re-test
  // only the attributes still wider than box. A sorted-merge alternative
  // to the per-record single-source filter.
  {
    std::vector<const std::string*> containing;
    for (const auto& [key, entry] : entries_) {
      if (entry.box.Contains(box)) containing.push_back(&key);
    }
    for (size_t i = 0; i + 1 < containing.size(); ++i) {
      for (size_t j = i + 1; j < containing.size(); ++j) {
        const Entry& a = entries_.at(*containing[i]);
        const Entry& b = entries_.at(*containing[j]);
        const Rect meet = IntersectionBox(a.box, b.box);
        const size_t residual = NarrowedAttrs(box, meet).size();
        const double runs =
            static_cast<double>(a.subset->tids.size()) +
            static_cast<double>(b.subset->tids.size()) +
            static_cast<double>(
                std::min(a.subset->tids.size(), b.subset->tids.size())) *
                static_cast<double>(residual + 1);
        ComposePlan plan;
        plan.shape = ComposePlan::Shape::kIntersect;
        plan.sources = {*containing[i], *containing[j]};
        plan.residual_outer = meet;
        plan.delta_attrs = static_cast<uint32_t>(residual);
        plan.summed_runs = runs;
        plan.cost = runs;
        consider(std::move(plan));
      }
    }
  }

  if (multi.shape != ComposePlan::Shape::kNone) return multi;
  return best;  // the filter, or an empty kNone plan
}

std::vector<Tid> QueryCache::ExecuteComposeLocked(const ComposePlan& plan,
                                                  const Rect& box) const {
  const Dataset& dataset = index_->dataset();
  auto tids_of = [&](const std::string& key) -> const std::vector<Tid>& {
    return entries_.at(key).subset->tids;
  };

  switch (plan.shape) {
    case ComposePlan::Shape::kUnion: {
      std::vector<Tid> out = tids_of(plan.sources.front());
      std::vector<Tid> merged;
      for (size_t i = 1; i < plan.sources.size(); ++i) {
        const std::vector<Tid>& next = tids_of(plan.sources[i]);
        merged.clear();
        merged.reserve(out.size() + next.size());
        std::set_union(out.begin(), out.end(), next.begin(), next.end(),
                       std::back_inserter(merged));
        out.swap(merged);
      }
      return out;
    }
    case ComposePlan::Shape::kDifference: {
      std::vector<Tid> strip;
      std::vector<Tid> merged;
      for (size_t i = 1; i < plan.sources.size(); ++i) {
        const std::vector<Tid>& next = tids_of(plan.sources[i]);
        merged.clear();
        merged.reserve(strip.size() + next.size());
        std::set_union(strip.begin(), strip.end(), next.begin(), next.end(),
                       std::back_inserter(merged));
        strip.swap(merged);
      }
      const std::vector<Tid>& outer = tids_of(plan.sources.front());
      std::vector<Tid> out;
      out.reserve(outer.size());
      std::set_difference(outer.begin(), outer.end(), strip.begin(),
                          strip.end(), std::back_inserter(out));
      return out;
    }
    case ComposePlan::Shape::kIntersect: {
      const std::vector<Tid>& a = tids_of(plan.sources[0]);
      const std::vector<Tid>& b = tids_of(plan.sources[1]);
      std::vector<Tid> meet;
      meet.reserve(std::min(a.size(), b.size()));
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(meet));
      if (plan.delta_attrs == 0) return meet;
      const std::vector<AttrId> narrowed =
          NarrowedAttrs(box, plan.residual_outer);
      std::vector<Tid> out;
      out.reserve(meet.size());
      for (Tid t : meet) {
        bool inside = true;
        for (AttrId attr : narrowed) {
          ValueId v = dataset.Value(t, attr);
          if (v < box.lo(attr) || v > box.hi(attr)) {
            inside = false;
            break;
          }
        }
        if (inside) out.push_back(t);
      }
      return out;
    }
    case ComposePlan::Shape::kNone:
    case ComposePlan::Shape::kFilter:
      break;  // not a multi-source composition
  }
  return {};
}

CacheHint QueryCache::HintLocked(const std::string& key, const Rect& box,
                                 ComposePlan* plan) const {
  CacheHint hint;
  auto exact = entries_.find(key);
  if (exact != entries_.end()) {
    hint.tier = CacheTier::kExact;
    hint.cached_size = static_cast<double>(exact->second.subset->tids.size());
    return hint;
  }
  *plan = PlanComposeLocked(box);
  if (plan->shape == ComposePlan::Shape::kFilter) {
    hint.tier = CacheTier::kContainment;
    hint.cached_size = plan->summed_runs;
    hint.delta_attrs = plan->delta_attrs;
  } else if (plan->shape != ComposePlan::Shape::kNone) {
    hint.tier = CacheTier::kCompose;
    hint.cached_size = plan->summed_runs;
    hint.delta_attrs = plan->delta_attrs;
    hint.compose_sources = static_cast<uint32_t>(plan->sources.size());
  }
  return hint;
}

CacheHint QueryCache::Probe(const Rect& box) const {
  const std::string key = CanonicalBoxKey(box);
  ComposePlan plan;
  std::lock_guard<std::mutex> lock(mutex_);
  return HintLocked(key, box, &plan);
}

QueryCache::Lease QueryCache::Acquire(const Rect& box,
                                      uint64_t* record_checks) {
  const Dataset& dataset = index_->dataset();
  const Schema& schema = dataset.schema();

  // The cold semantic price, regardless of which tier actually serves the
  // subset, so warm effort counters stay byte-identical to cold ones.
  if (record_checks != nullptr && BoxIsConstrained(schema, box)) {
    *record_checks += dataset.num_records();
  }

  Lease lease;
  std::string key = CanonicalBoxKey(box);
  ComposePlan plan;
  std::lock_guard<std::mutex> lock(mutex_);
  sketch_.Record(HashKey(key));
  lease.hint = HintLocked(key, box, &plan);

  switch (lease.hint.tier) {
    case CacheTier::kExact: {
      Entry& entry = entries_.at(key);
      ++counters_.hits_exact;
      ++entry.hits;
      PromoteLocked(&entry);
      lease.subset = *entry.subset;
      return lease;
    }
    case CacheTier::kContainment: {
      ++counters_.hits_containment;
      const FocalSubset& src = *entries_.at(plan.sources.front()).subset;
      const std::vector<AttrId> narrowed = NarrowedAttrs(box, src.box);
      lease.subset.box = box;
      // Re-test only the narrowed attributes over the cached tid list.
      lease.subset.tids.reserve(src.tids.size());
      for (Tid t : src.tids) {
        bool inside = true;
        for (AttrId a : narrowed) {
          ValueId v = dataset.Value(t, a);
          if (v < box.lo(a) || v > box.hi(a)) {
            inside = false;
            break;
          }
        }
        if (inside) lease.subset.tids.push_back(t);
      }
      NoteDerivationSourceLocked(plan.sources.front());
      break;
    }
    case CacheTier::kCompose:
      ++counters_.hits_compose;
      lease.subset.box = box;
      lease.subset.tids = ExecuteComposeLocked(plan, box);
      for (const std::string& source : plan.sources) {
        NoteDerivationSourceLocked(source);
      }
      break;
    case CacheTier::kNone:
      ++counters_.misses;
      lease.subset = FocalSubset::Materialize(dataset, box);
      break;
  }
  InsertLocked(std::move(key), box,
               std::make_shared<const FocalSubset>(lease.subset));
  return lease;
}

std::shared_ptr<const CountMemoEntry> QueryCache::MemoLookup(
    const std::string& box_key, const std::string& constraint_key,
    uint32_t mip_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto entry = entries_.find(box_key);
  if (entry == entries_.end()) return nullptr;
  auto memo = entry->second.memo.find({constraint_key, mip_id});
  return memo != entry->second.memo.end() ? memo->second : nullptr;
}

std::shared_ptr<const ArmMemoEntry> QueryCache::ArmMemoLookup(
    const std::string& box_key, const std::string& constraint_key,
    uint32_t min_count) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto entry = entries_.find(box_key);
  if (entry == entries_.end()) return nullptr;
  auto memo = entry->second.arm_memo.find({constraint_key, min_count});
  return memo != entry->second.arm_memo.end() ? memo->second : nullptr;
}

void QueryCache::NoteMemoServed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.hits_count_memo;
}

std::unique_ptr<CountMemoTxn> QueryCache::BeginTxn(const Rect& box,
                                                   std::string constraint_key) {
  return std::make_unique<CountMemoTxn>(this, CanonicalBoxKey(box),
                                        std::move(constraint_key));
}

void QueryCache::Commit(CountMemoTxn* txn) {
  if (txn == nullptr) return;
  std::lock_guard<std::mutex> txn_lock(txn->mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(txn->box_key_);
  if (it == entries_.end()) return;  // box evicted mid-flight: drop writes
  Entry& entry = it->second;
  for (auto& [mip_id, write] : txn->writes_) {
    const std::pair<std::string, uint32_t> memo_key{txn->constraint_key_,
                                                    mip_id};
    auto existing = entry.memo.find(memo_key);
    if (existing != entry.memo.end()) {
      // Counts are deterministic, so a published table stays; only an
      // entry without one (read from an older cache file) is replaced.
      if (!existing->second->superset_counts.empty()) continue;
      const size_t old_bytes =
          MemoBytes(txn->constraint_key_, *existing->second);
      entry.bytes -= old_bytes;
      counters_.bytes -= old_bytes;
      entry.memo.erase(existing);
    }
    auto published = std::make_shared<const CountMemoEntry>(std::move(write));
    const size_t new_bytes = MemoBytes(txn->constraint_key_, *published);
    entry.memo.emplace(memo_key, std::move(published));
    entry.bytes += new_bytes;
    counters_.bytes += new_bytes;
  }
  for (auto& [min_count, write] : txn->arm_writes_) {
    const std::pair<std::string, uint32_t> arm_key{txn->constraint_key_,
                                                   min_count};
    // First publication wins: ARM results are deterministic per triple, so
    // a second run can only produce the identical record.
    if (entry.arm_memo.count(arm_key) > 0) continue;
    auto published = std::make_shared<const ArmMemoEntry>(std::move(write));
    const size_t new_bytes = ArmMemoBytes(txn->constraint_key_, *published);
    entry.arm_memo.emplace(arm_key, std::move(published));
    entry.bytes += new_bytes;
    counters_.bytes += new_bytes;
  }
  txn->writes_.clear();
  txn->arm_writes_.clear();
  entry.last_used = ++clock_;
  EvictOverBudgetLocked(nullptr);
}

CacheTelemetry QueryCache::telemetry() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  counters_.bytes = 0;
  counters_.entries = 0;
}

std::vector<CacheEntrySnapshot> QueryCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) {
              return a->last_used < b->last_used;
            });
  std::vector<CacheEntrySnapshot> out;
  out.reserve(ordered.size());
  for (const Entry* entry : ordered) {
    CacheEntrySnapshot snap;
    snap.box = entry->box;
    snap.subset = entry->subset;
    snap.is_protected = entry->is_protected;
    snap.hits = entry->hits;
    snap.derivations = entry->derivations;
    snap.memos.assign(entry->memo.begin(), entry->memo.end());
    snap.arm_memos.assign(entry->arm_memo.begin(), entry->arm_memo.end());
    out.push_back(std::move(snap));
  }
  return out;
}

void QueryCache::Restore(std::vector<CacheEntrySnapshot> entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  counters_.bytes = 0;
  counters_.entries = 0;
  for (CacheEntrySnapshot& snap : entries) {
    if (snap.subset == nullptr) continue;
    Entry entry;
    entry.box = snap.box;
    entry.subset = std::move(snap.subset);
    entry.is_protected = snap.is_protected;
    entry.hits = snap.hits;
    entry.derivations = snap.derivations;
    entry.bytes = SubsetBytes(*entry.subset);
    for (auto& [memo_key, memo] : snap.memos) {
      entry.bytes += MemoBytes(memo_key.first, *memo);
      entry.memo.emplace(memo_key, std::move(memo));
    }
    for (auto& [arm_key, memo] : snap.arm_memos) {
      entry.bytes += ArmMemoBytes(arm_key.first, *memo);
      entry.arm_memo.emplace(arm_key, std::move(memo));
    }
    entry.last_used = ++clock_;
    counters_.bytes += entry.bytes;
    ++counters_.entries;
    // A later snapshot of the same box replaces the earlier one, and the
    // replaced entry's bytes and count go with it.
    auto [it, inserted] =
        entries_.try_emplace(CanonicalBoxKey(entry.box), std::move(entry));
    if (!inserted) {
      counters_.bytes -= it->second.bytes;
      --counters_.entries;
      it->second = std::move(entry);
    }
  }
  EvictOverBudgetLocked(nullptr);
}

void QueryCache::NoteDerivationSourceLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  ++it->second.derivations;
  PromoteLocked(&it->second);
}

void QueryCache::PromoteLocked(Entry* entry) {
  entry->last_used = ++clock_;
  if (entry->is_protected) return;
  entry->is_protected = true;
  // Protected segment caps at ~80% of the budget so probation always has
  // room to establish new entries; over the cap, demote protected LRUs
  // back to probation (the just-promoted entry last).
  const size_t cap = options_.byte_budget - options_.byte_budget / 5;
  while (ProtectedBytesLocked() > cap) {
    Entry* lru = nullptr;
    for (auto& [key, candidate] : entries_) {
      if (!candidate.is_protected || &candidate == entry) continue;
      if (lru == nullptr || candidate.last_used < lru->last_used) {
        lru = &candidate;
      }
    }
    if (lru == nullptr) {
      entry->is_protected = false;
      break;
    }
    lru->is_protected = false;
  }
}

size_t QueryCache::ProtectedBytesLocked() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.is_protected) bytes += entry.bytes;
  }
  return bytes;
}

void QueryCache::InsertLocked(std::string key, const Rect& box,
                              std::shared_ptr<const FocalSubset> subset) {
  Entry& entry = entries_[key];
  entry.box = box;
  entry.bytes = SubsetBytes(*subset);
  entry.subset = std::move(subset);
  ++counters_.entries;
  counters_.bytes += entry.bytes;
  entry.last_used = ++clock_;
  EvictOverBudgetLocked(&key);
}

void QueryCache::EvictOverBudgetLocked(const std::string* incoming_key) {
  auto remove = [&](std::map<std::string, Entry>::iterator victim) {
    counters_.bytes -= victim->second.bytes;
    --counters_.entries;
    entries_.erase(victim);
  };
  while (counters_.bytes > options_.byte_budget && !entries_.empty()) {
    // Victim: probation LRU first (2Q), protected LRU only when probation
    // is empty, the incoming entry itself only when nothing else remains.
    auto victim = entries_.end();
    for (bool protected_pass : {false, true}) {
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.is_protected != protected_pass) continue;
        if (incoming_key != nullptr && it->first == *incoming_key) continue;
        if (victim == entries_.end() ||
            it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim != entries_.end()) break;
    }
    if (victim == entries_.end()) {
      // Only the incoming entry is resident and it alone busts the budget.
      victim = entries_.find(*incoming_key);
      incoming_key = nullptr;
      ++counters_.evictions;
      remove(victim);
      continue;
    }
    if (incoming_key != nullptr) {
      // TinyLFU admission gate: keep the victim when its request frequency
      // strictly exceeds the incoming box's — a one-off sweep entry loses
      // to an established hot one. Ties admit the newcomer (plain LRU).
      auto incoming = entries_.find(*incoming_key);
      if (incoming != entries_.end() &&
          sketch_.Estimate(HashKey(victim->first)) >
              sketch_.Estimate(HashKey(*incoming_key))) {
        ++counters_.admission_rejects;
        remove(incoming);
        incoming_key = nullptr;
        continue;
      }
    }
    ++counters_.evictions;
    remove(victim);
  }
}

}  // namespace colarm
