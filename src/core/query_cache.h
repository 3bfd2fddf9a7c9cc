#ifndef COLARM_CORE_QUERY_CACHE_H_
#define COLARM_CORE_QUERY_CACHE_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "mip/mip_index.h"
#include "plans/focal_subset.h"
#include "plans/operators.h"

namespace colarm {

/// Canonical byte key of a focal box: per-attribute [lo, hi] intervals in
/// attribute order, so range order and redundant full-domain selections in
/// the query cannot defeat matching.
std::string CanonicalBoxKey(const Rect& box);

struct QueryCacheOptions {
  /// Resident-byte budget for cached subsets plus their count memos;
  /// eviction keeps the total under it. 0 means no cache: the engine and
  /// the server's tenants build none.
  size_t byte_budget = size_t{64} << 20;
};

/// Observability counters. Hits/misses/evictions/rejects are monotonic
/// totals; bytes/entries are the resident state. All are deterministic for
/// a given query sequence — independent of thread count, record-level
/// route, and timing.
struct CacheTelemetry {
  uint64_t hits_exact = 0;
  uint64_t hits_containment = 0;
  uint64_t hits_compose = 0;  // tier 2.5: assembled from overlapping entries
  uint64_t hits_count_memo = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;  // TinyLFU gate kept the victim instead
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// One memoized itemset count for a (box, MIP) pair. `superset_counts` is
/// the producing counter's 2^L superset-sum table ([mask] = number of
/// subset records carrying every item of the mask), written by a
/// mask-route VERIFY (itemsets up to kMaxMaskItems). It is empty only in
/// entries read from a cache file that also stored bare full counts;
/// nothing replays those. Immutable once published — readers hold it by
/// shared_ptr so eviction never invalidates an in-flight query.
struct CountMemoEntry {
  uint32_t full_count = 0;
  std::vector<uint32_t> superset_counts;
};

/// One memoized ARM mining result for a (box, constraints, local minimum
/// count) triple: the qualified itemsets the miner produced, sorted by MIP
/// id, plus the local-CFI tally the run charged. Replaying it skips the
/// from-scratch CHARM pass outright while keeping rules and effort counters
/// byte-identical — the qualified set is a pure function of the triple.
/// Immutable once published.
struct ArmMemoEntry {
  uint64_t local_cfis = 0;
  std::vector<QualifiedItemset> qualified;
};

class QueryCache;

/// The count memo as one query execution sees it, and the operators' only
/// handle on it: reads come from the cache's committed state, hit notes
/// land in its telemetry at once (failed queries' hits included), and
/// writes buffer here until the engine commits them at a deterministic
/// point — the end of its batch, in input order — so cache state
/// transitions never depend on thread timing. Writes are thread-safe:
/// parallel shards record concurrently, but always to distinct MIPs, so
/// content is deterministic.
class CountMemoTxn {
 public:
  CountMemoTxn(QueryCache* cache, std::string box_key,
               std::string constraint_key = {})
      : cache_(cache),
        box_key_(std::move(box_key)),
        constraint_key_(std::move(constraint_key)) {}

  const std::string& box_key() const { return box_key_; }
  const std::string& constraint_key() const { return constraint_key_; }

  /// The committed memo for one MIP of this box and constraint key; null
  /// on a miss. Serving from it is noted with NoteServed().
  std::shared_ptr<const CountMemoEntry> Lookup(uint32_t mip_id) const;

  /// The committed ARM mining result at `min_count`; null on a miss.
  std::shared_ptr<const ArmMemoEntry> LookupArm(uint32_t min_count) const;

  /// Telemetry: one itemset's subset table (or one ARM mining run) was
  /// served from the memo instead of a record-level pass.
  void NoteServed() const;

  /// Records the complete subset-count table (mask-route VERIFY).
  void RecordTable(uint32_t mip_id, uint32_t full_count,
                   std::span<const uint32_t> superset_counts);

  /// Records one ARM mining run's complete qualified set at its local
  /// minimum count (first write wins; results are deterministic).
  void RecordArmMine(uint32_t min_count, uint64_t local_cfis,
                     std::vector<QualifiedItemset> qualified);

 private:
  friend class QueryCache;

  QueryCache* cache_;
  std::string box_key_;
  /// RuleConstraints::CacheKey() of the owning query ("" = unconstrained).
  /// Memo facts land under (constraint_key, mip_id), so queries with
  /// different constraints never serve each other's entries.
  std::string constraint_key_;
  std::mutex mutex_;
  std::map<uint32_t, CountMemoEntry> writes_;
  std::map<uint32_t, ArmMemoEntry> arm_writes_;  // keyed by min_count
};

/// One resident entry's externally visible state — the unit the v4
/// persistence layer (core/cache_persist.h) saves and restores. Snapshots
/// come out oldest-recency first so restoring replays the same order.
struct CacheEntrySnapshot {
  Rect box;
  std::shared_ptr<const FocalSubset> subset;
  bool is_protected = false;  // 2Q segment (probation vs protected)
  uint64_t hits = 0;
  uint64_t derivations = 0;
  std::vector<std::pair<std::pair<std::string, uint32_t>,
                        std::shared_ptr<const CountMemoEntry>>>
      memos;
  std::vector<std::pair<std::pair<std::string, uint32_t>,
                        std::shared_ptr<const ArmMemoEntry>>>
      arm_memos;  // keyed (constraint key, local minimum count)
};

/// The session-scoped semantic cache (owned by the Engine, or by a server
/// tenant and passed in through a SessionContext): a byte-budgeted store of materialized focal subsets
/// keyed by canonical box, with four reuse tiers —
///
///   1.   exact: a query's box is resident → copy its tid list, no scan;
///   2.   containment: a resident box *contains* the query's box → derive
///        DQ by re-testing the cached tids on the narrowed attributes only
///        — exact by the focal-box containment invariant;
///   2.5. compose: the box is assembled from *overlapping* resident boxes
///        via union / difference / intersection of their tid lists (slab
///        geometry keeps every shape provably exact; see PlanComposeLocked)
///        whenever a deterministic size-based cost gate prices the combine
///        below both the best containment filter and the cold scan;
///   3.   count memo: per-(box, MIP) subset-count tables recorded by
///        VERIFY, replayed by later queries on the same box with
///        different thresholds (exact by threshold monotonicity) — plus
///        per-(box, constraints, min count) ARM mining results, so a
///        repeated ARM-plan query skips the from-scratch CHARM pass
///        entirely (exact: the qualified set is a pure function of that
///        triple).
///
/// Every tier is byte-identical to cold execution in rules and effort
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
/// of state transitions is the *callers'* contract (acquisitions and
/// commits happen at sequential points — see CountMemoTxn).
class QueryCache {
 public:
  QueryCache(const MipIndex& index, QueryCacheOptions options);

  /// Read-only probe for the optimizer: which tier would serve `box` right
  /// now (running the same composition planner Acquire runs). Touches
  /// neither recency, sketch, nor telemetry.
  CacheHint Probe(const Rect& box) const;

  /// The focal subset handed to one plan execution, plus how it was served:
  /// the hint Probe would have returned just before this acquisition.
  struct Lease {
    FocalSubset subset;
    CacheHint hint;
  };

  /// Serves the focal subset for `box` from the best tier — exact copy,
  /// containment derivation, tier-2.5 composition, or cold
  /// materialization — inserting the resulting subset and updating
  /// recency/segments, telemetry, and evictions. `record_checks` is
  /// charged exactly the cold price (the relation size, iff the box
  /// constrains anything) regardless of tier, so plan statistics stay
  /// byte-identical to cold execution. Call from sequential points only
  /// (see class comment).
  Lease Acquire(const Rect& box, uint64_t* record_checks);

  /// Tier-3 read: the committed memo for (box, constraints, MIP), null on
  /// a miss. Does not count telemetry — a query's CountMemoTxn notes the
  /// hits it actually serves.
  std::shared_ptr<const CountMemoEntry> MemoLookup(
      const std::string& box_key, const std::string& constraint_key,
      uint32_t mip_id) const;

  /// Tier-3 read for the ARM plan: the committed mining result for (box,
  /// constraints, local minimum count), null on a miss. Exact-triple match
  /// only — `local_cfis` is threshold-specific, so serving a different
  /// count would desynchronize warm effort counters from cold.
  std::shared_ptr<const ArmMemoEntry> ArmMemoLookup(
      const std::string& box_key, const std::string& constraint_key,
      uint32_t min_count) const;

  /// Starts the memo transaction of one query on `box` under its
  /// constraint key (no cache state is touched until Commit).
  std::unique_ptr<CountMemoTxn> BeginTxn(const Rect& box,
                                         std::string constraint_key = {});

  /// Merges a transaction's writes into the box's entry (dropped silently
  /// when the box has been evicted), bumps its recency, and evicts over
  /// budget. Call from sequential points only.
  void Commit(CountMemoTxn* txn);

  CacheTelemetry telemetry() const;
  const QueryCacheOptions& options() const { return options_; }

  /// Drops every entry and resets resident bytes (totals keep counting).
  void Clear();

  /// Resident entries, oldest recency first — the persistence layer's
  /// read side. Subsets/memos are shared, not copied.
  std::vector<CacheEntrySnapshot> Snapshot() const;

  /// Replaces residency with `entries` (recency assigned in order, oldest
  /// first), recomputes byte accounting, and evicts over budget. The
  /// frequency sketch is *not* restored — a warm-restarted cache starts
  /// with a cold sketch, which only affects admission under pressure,
  /// never served bytes. Totals keep counting, like Clear().
  void Restore(std::vector<CacheEntrySnapshot> entries);

 private:
  friend class CountMemoTxn;

  /// Telemetry: one subset table or ARM run was served from the memo.
  void NoteMemoServed();

  struct Entry {
    Rect box;
    std::shared_ptr<const FocalSubset> subset;
    /// Keyed by (constraint key, MIP id): constrained and unconstrained
    /// queries on the same box keep disjoint memo namespaces.
    std::map<std::pair<std::string, uint32_t>,
             std::shared_ptr<const CountMemoEntry>>
        memo;
    /// Keyed by (constraint key, local minimum count).
    std::map<std::pair<std::string, uint32_t>,
             std::shared_ptr<const ArmMemoEntry>>
        arm_memo;
    size_t bytes = 0;
    uint64_t last_used = 0;
    bool is_protected = false;  // 2Q segment
    uint64_t hits = 0;          // exact hits served from this entry
    uint64_t derivations = 0;   // times used as a tier-2/2.5 source
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

  /// A composition route for a non-resident box, chosen by the planner.
  struct ComposePlan {
    enum class Shape { kNone, kFilter, kUnion, kDifference, kIntersect };
    Shape shape = Shape::kNone;
    /// Entry keys, shape-specific order: kFilter/{src}; kUnion/{slabs};
    /// kDifference/{outer, slabs...}; kIntersect/{a, b}.
    std::vector<std::string> sources;
    /// Outer box of the residual filter (kFilter: the source's box;
    /// kIntersect: a.box ∩ b.box).
    Rect residual_outer;
    uint32_t delta_attrs = 0;  // attrs the residual filter re-tests
    double summed_runs = 0.0;  // tid-run length the merge walks
    double cost = 0.0;         // size-proxy cost (see PlanComposeLocked)
  };

  /// The tier-2/2.5 planner: enumerates the exact reuse shapes available
  /// for `box` (single-source containment filter; per-axis slab union;
  /// outer-minus-slabs difference; contained-pair intersection) and picks
  /// deterministically by an integer size-proxy cost. A multi-source shape
  /// is admitted only when strictly cheaper than both the best containment
  /// filter and the cold scan; containment itself stays ungated, matching
  /// the pre-2.5 behavior. Caller holds mutex_.
  ComposePlan PlanComposeLocked(const Rect& box) const;

  /// The tier that serves `box` (canonical key `key`) right now; for the
  /// containment and compose tiers `plan` receives the route. Shared by
  /// Probe and Acquire, so an acquisition's hint is what a probe just
  /// before it returns. Caller holds mutex_.
  CacheHint HintLocked(const std::string& key, const Rect& box,
                       ComposePlan* plan) const;

  /// Materializes the planned composition by merges of sorted tid runs
  /// plus a residual re-test of the narrowed attributes: the exact sorted
  /// T_box. Caller holds mutex_.
  std::vector<Tid> ExecuteComposeLocked(const ComposePlan& plan,
                                        const Rect& box) const;

  /// Bumps per-entry derivation accounting and promotes `key` into the
  /// protected segment. Caller holds mutex_.
  void NoteDerivationSourceLocked(const std::string& key);
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
