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

uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
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

void CountMemoTxn::RecordTable(uint32_t mip_id,
                               std::span<const uint32_t> superset_counts) {
  std::lock_guard<std::mutex> lock(mutex_);
  writes_[mip_id].superset_counts.assign(superset_counts.begin(),
                                         superset_counts.end());
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

CacheHint QueryCache::HintLocked(const std::string& key, const Rect& box,
                                 const std::string** source) const {
  CacheHint hint;
  auto exact = entries_.find(key);
  if (exact != entries_.end()) {
    hint.tier = CacheTier::kExact;
    hint.cached_size = static_cast<double>(exact->second.subset->tids.size());
    return hint;
  }
  const Entry* src = nullptr;
  for (const auto& [entry_key, entry] : entries_) {
    if (!entry.box.Contains(box)) continue;
    if (src == nullptr ||
        entry.subset->tids.size() < src->subset->tids.size()) {
      src = &entry;
      *source = &entry_key;
    }
  }
  if (src != nullptr) {
    hint.tier = CacheTier::kContainment;
    hint.cached_size = static_cast<double>(src->subset->tids.size());
    hint.delta_attrs =
        static_cast<uint32_t>(NarrowedAttrs(box, src->box).size());
  }
  return hint;
}

CacheHint QueryCache::Probe(const Rect& box) const {
  const std::string key = CanonicalBoxKey(box);
  const std::string* source = nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  return HintLocked(key, box, &source);
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
  const std::string* source = nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  sketch_.Record(HashKey(key));
  lease.hint = HintLocked(key, box, &source);

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
      Entry& entry = entries_.at(*source);
      const FocalSubset& src = *entry.subset;
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
      ++entry.derivations;
      PromoteLocked(&entry);
      break;
    }
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
    // Counts are deterministic, so a published table stays.
    if (entry.memo.count(memo_key) > 0) continue;
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
