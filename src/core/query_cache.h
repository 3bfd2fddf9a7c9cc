#ifndef COLARM_CORE_QUERY_CACHE_H_
#define COLARM_CORE_QUERY_CACHE_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "mip/mip_index.h"
#include "plans/focal_subset.h"

namespace colarm {

/// Canonical byte key of a focal box: per-attribute [lo, hi] intervals in
/// attribute order, so range order and redundant full-domain selections in
/// the query cannot defeat matching.
std::string CanonicalBoxKey(const Rect& box);

struct QueryCacheOptions {
  /// Resident-byte budget for cached subsets (their tid lists plus a fixed
  /// per-entry overhead); eviction keeps the total under it. 0 means no
  /// cache: the engine and the server's tenants build none.
  size_t byte_budget = size_t{64} << 20;
};

/// Observability counters. Hits/misses/evictions/rejects are monotonic
/// totals; bytes/entries are the resident state. All are deterministic for
/// a given query sequence — independent of thread count, record-level
/// route, and timing.
struct CacheTelemetry {
  uint64_t hits_exact = 0;
  uint64_t hits_containment = 0;
  /// Always 0. It counted the retired overlap-composition tier; it stays
  /// because STATS has a fixed wire layout and the benchmark reads it.
  uint64_t hits_compose = 0;
  /// Always 0. It counted the retired count and ARM memos; it stays for
  /// the same reasons as hits_compose.
  uint64_t hits_count_memo = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;  // TinyLFU gate kept the victim instead
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// One resident entry's externally visible state — the unit the
/// persistence layer (core/cache_persist.h) saves and restores. Snapshots
/// come out oldest-recency first so restoring replays the same order.
struct CacheEntrySnapshot {
  Rect box;
  std::shared_ptr<const FocalSubset> subset;
  bool is_protected = false;  // 2Q segment (probation vs protected)
  uint64_t hits = 0;
  uint64_t derivations = 0;
};

/// The session-scoped semantic cache (owned by the Engine, or by a server
/// tenant and passed in through a SessionContext): a byte-budgeted store
/// of materialized focal subsets keyed by canonical box, with two reuse
/// tiers —
///
///   1. exact: a query's box is resident → copy its tid list, no scan;
///   2. containment: a resident box *contains* the query's box → derive
///      DQ by re-testing the smallest such entry's tids on the narrowed
///      attributes only — exact by the focal-box containment invariant.
///
/// Any other box is materialized cold. The cache only serves SELECT:
/// every plan's record-level work after it runs cold.
///
/// Both tiers are byte-identical to cold execution in rules and effort
/// counters: warm paths charge the cold semantic record-check price.
/// Entries store tid lists only, so byte accounting, eviction order, and
/// telemetry depend on the logical content alone.
///
/// Admission/eviction is scan-resistant (TinyLFU + 2Q) instead of pure
/// LRU: a 4-row count-min sketch estimates per-box request frequency, new
/// entries land in a probation segment, and exact hits or derivation use
/// promote an entry to the protected segment (capped at ~80% of budget).
/// Under pressure the probation LRU goes first; when a victim's sketch
/// frequency strictly exceeds the incoming entry's, the incoming entry is
/// dropped instead (`admission_rejects`), so one bulk sweep of one-off
/// boxes cannot flush a hot drill-down set. All of it is deterministic in
/// the acquisition sequence.
///
/// Thread safety: all methods are safe to call concurrently; determinism
/// of state transitions is the *callers'* contract (acquisitions happen at
/// sequential points — see Engine::ExecuteBatch).
class QueryCache {
 public:
  QueryCache(const MipIndex& index, QueryCacheOptions options);

  /// Read-only probe for the optimizer: which tier would serve `box` right
  /// now (making the same pick Acquire makes). Touches neither recency,
  /// sketch, nor telemetry.
  CacheHint Probe(const Rect& box) const;

  /// The focal subset handed to one plan execution, plus how it was served:
  /// the hint Probe would have returned just before this acquisition.
  struct Lease {
    FocalSubset subset;
    CacheHint hint;
  };

  /// Serves the focal subset for `box` from the best tier — exact copy,
  /// containment derivation, or cold materialization — inserting the
  /// resulting subset and updating recency/segments, telemetry, and
  /// evictions. `record_checks` is charged exactly the cold price (the
  /// relation size, iff the box constrains anything) regardless of tier,
  /// so plan statistics stay byte-identical to cold execution. Call from
  /// sequential points only (see class comment).
  Lease Acquire(const Rect& box, uint64_t* record_checks);

  CacheTelemetry telemetry() const;
  const QueryCacheOptions& options() const { return options_; }

  /// Drops every entry and resets resident bytes (totals keep counting).
  void Clear();

  /// Resident entries, oldest recency first — the persistence layer's
  /// read side. Subsets are shared, not copied.
  std::vector<CacheEntrySnapshot> Snapshot() const;

  /// Replaces residency with `entries` (recency assigned in order, oldest
  /// first), recomputes byte accounting, and evicts over budget. The
  /// frequency sketch is *not* restored — a warm-restarted cache starts
  /// with a cold sketch, which only affects admission under pressure,
  /// never served bytes. Totals keep counting, like Clear().
  void Restore(std::vector<CacheEntrySnapshot> entries);

 private:
  struct Entry {
    Rect box;
    std::shared_ptr<const FocalSubset> subset;
    size_t bytes = 0;
    uint64_t last_used = 0;
    bool is_protected = false;  // 2Q segment
    uint64_t hits = 0;          // exact hits served from this entry
    uint64_t derivations = 0;   // times used as a containment source
  };

  /// TinyLFU frequency sketch: 4-row count-min over box-key hashes with
  /// saturating 8-bit counters, halved every kSketchDecayPeriod
  /// recordings so stale popularity ages out. Purely a function of the
  /// acquisition sequence — deterministic.
  struct FrequencySketch {
    static constexpr uint32_t kRows = 4;
    static constexpr uint32_t kColumns = 1024;  // power of two
    static constexpr uint32_t kSketchDecayPeriod = 1024;

    void Record(uint64_t hash);
    uint32_t Estimate(uint64_t hash) const;

    std::array<std::array<uint8_t, kColumns>, kRows> counters{};
    uint32_t recordings = 0;
  };

  /// The tier that serves `box` (canonical key `key`) right now; for the
  /// containment tier `source` receives the key of the smallest resident
  /// entry containing `box` (key order breaking ties). Shared by Probe and
  /// Acquire, so an acquisition's hint is what a probe just before it
  /// returns. Caller holds mutex_.
  CacheHint HintLocked(const std::string& key, const Rect& box,
                       const std::string** source) const;

  /// Bumps `entry`'s recency and moves it into the protected segment.
  /// Caller holds mutex_.
  void PromoteLocked(Entry* entry);
  size_t ProtectedBytesLocked() const;

  /// Inserts the entry for `key`, which is not resident, into probation,
  /// then evicts until resident bytes fit the budget. Caller holds mutex_.
  void InsertLocked(std::string key, const Rect& box,
                    std::shared_ptr<const FocalSubset> subset);

  /// Evicts until under budget: probation LRU first, protected LRU after,
  /// with the TinyLFU admission gate protecting higher-frequency victims
  /// from `incoming_key` (null = no incoming entry to trade off). Caller
  /// holds mutex_.
  void EvictOverBudgetLocked(const std::string* incoming_key);

  const MipIndex* index_;
  QueryCacheOptions options_;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  uint64_t clock_ = 0;
  FrequencySketch sketch_;
  CacheTelemetry counters_;  // bytes/entries tracked here too
};

}  // namespace colarm

#endif  // COLARM_CORE_QUERY_CACHE_H_
