#ifndef COLARM_CORE_ENGINE_H_
#define COLARM_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/optimizer.h"
#include "core/query_cache.h"
#include "mip/mip_index.h"
#include "plans/plans.h"

namespace colarm {

struct EngineOptions {
  MipIndexOptions index;
  RuleGenOptions rulegen;
  /// Micro-calibrate cost constants on this machine at build time; when
  /// false, portable defaults are used (deterministic optimizer behaviour
  /// for tests).
  bool calibrate = true;
  CostConstants cost_constants;
  /// When non-empty, Build() first tries to load the MIP-index from this
  /// file (validating the dataset fingerprint and build options) and, on a
  /// miss, mines it and writes the file — preprocess once across process
  /// lifetimes.
  std::string index_cache_path;
  /// Degree of parallelism for the offline index build and the online
  /// record-level operators: 0 = hardware concurrency, 1 = the exact
  /// single-threaded legacy path (no pool is created). Results and effort
  /// counters are byte-identical across any value — parallelism only
  /// changes wall time.
  unsigned num_threads = 0;
  /// Session cache (core/query_cache.h): focal-subset reuse across
  /// queries and batches. Off by default (a zero byte budget means no
  /// cache) — the default options preserve cache-less behaviour exactly.
  /// With a budget, warm execution
  /// stays byte-identical to cold in rules, effort counters, and plan
  /// choice; only wall time and the decision's cache-provenance field
  /// change.
  QueryCacheOptions cache = {.byte_budget = 0};
};

/// Outcome of one query: the localized rules plus which plan ran, why, and
/// what it cost.
struct QueryResult {
  RuleSet rules;
  PlanKind plan_used = PlanKind::kSEV;
  bool chosen_by_optimizer = false;
  PlanStats stats;
  OptimizerDecision decision;
  /// Session-cache telemetry for this query: hit/miss/eviction counters as
  /// deltas attributable to the query, bytes/entries as the resident state
  /// after it. All zero when the cache is disabled, and for queries run in
  /// a batch of two or more (see BatchResult::cache).
  CacheTelemetry cache;
};

/// Outcome of Engine::ExecuteBatch.
struct BatchResult {
  /// One entry per input query, in input order: its result, or the status
  /// that failed it alone (invalid query, cancel token fired).
  std::vector<Result<QueryResult>> results;
  /// Without a cache: focal-subset materializations avoided because an
  /// earlier executed query of the batch selects the same box. Zero with a
  /// cache, whose hit counters show that reuse instead.
  uint32_t subsets_shared = 0;
  /// Queries answered with an identical earlier query's outcome (same
  /// query, same cancel token).
  uint32_t duplicates_reused = 0;
  /// Session-cache telemetry for the whole batch: hit/miss/eviction
  /// counters as deltas, bytes/entries as the resident state after it.
  /// All zero when no cache applies.
  CacheTelemetry cache;
};

/// Per-call execution context for multi-tenant serving (src/server): lets
/// one shared engine run a query against a caller-owned session cache — a
/// tenant's drill-down sequence hits its own containment tiers without
/// polluting other tenants' — under a cooperative cancellation token
/// (per-request deadline, shutdown drain). Default-constructed it is
/// byte-identical to the plain entry points.
struct SessionContext {
  /// Overrides the engine-owned cache for this call; null keeps the
  /// engine's (which may itself be null = caching off). The cache must
  /// have been built over this engine's index.
  QueryCache* cache = nullptr;
  /// When set, the plan executors poll it and the call returns
  /// kDeadlineExceeded instead of a result once it fires. A token that has
  /// fired before the query's SELECT fails it without touching the cache.
  /// (ExecuteBatch takes one token per query instead.)
  const CancelToken* cancel = nullptr;
};

/// The top-level COLARM engine (Figure 2): owns the offline-built MIP-index
/// plus statistics and the cost-based optimizer, and executes online
/// localized rule mining queries with the optimizer-selected plan.
///
/// Typical use:
///
///   Dataset data = ...;                       // must outlive the engine
///   EngineOptions options;
///   options.index.primary_support = 0.6;
///   auto engine = Engine::Build(data, options).value();
///   LocalizedQuery query{.ranges = {{0, 2, 5}}, .minsupp = .8, .minconf = .9};
///   QueryResult result = engine->Execute(query).value();
class Engine {
 public:
  /// Runs the offline preprocessing phase (CHARM + MIP-index + statistics
  /// + calibration). The dataset reference must outlive the engine.
  static Result<std::unique_ptr<Engine>> Build(const Dataset& dataset,
                                               const EngineOptions& options);

  /// Executes `query` with the plan the optimizer picks.
  Result<QueryResult> Execute(const LocalizedQuery& query) const;

  /// Executes `query` under a session context: against the context's cache
  /// (per-tenant sessions) and cancellation token (request deadlines). The
  /// batch of one.
  Result<QueryResult> Execute(const LocalizedQuery& query,
                              const SessionContext& session) const;

  /// Executes `query` with a caller-forced plan (used by benchmarks and
  /// the plan-equivalence tests).
  Result<QueryResult> ExecuteWithPlan(const LocalizedQuery& query,
                                      PlanKind kind) const;

  /// Multi-query execution — the paper's future-work item (b) and the
  /// engine's only query pipeline (Execute is a batch of one). Each query
  /// runs one sequence, in input order: acquire its focal subset (with a
  /// cache, one QueryCache::Acquire per executed query; without, each
  /// distinct box is materialized once, concurrently), choose its plan
  /// with the acquisition's cache hint, and execute it on the engine's
  /// pool concurrently with the others. A query identical to an earlier
  /// one under the same cancel token shares that query's outcome.
  ///
  /// Every result equals the query's standalone Execute in rules, plan and
  /// every effort counter, for any thread count. Cache state transitions
  /// are sequential, so they are deterministic too, and execution reads no
  /// cache state.
  ///
  /// `cache` overrides the engine's cache as SessionContext::cache does
  /// (null keeps the engine's). `cancels` is empty (nothing is cancelled)
  /// or holds one token per query (null = never cancelled); any other size
  /// fails every slot with kInvalidArgument. Failures stay in their slot.
  BatchResult ExecuteBatch(std::span<const LocalizedQuery> queries,
                           QueryCache* cache = nullptr,
                           std::span<const CancelToken* const> cancels = {})
      const;

  /// Cost estimates for all plans without executing anything.
  Result<OptimizerDecision> Explain(const LocalizedQuery& query) const;

  /// Explain under a session context: the cache hint comes from the
  /// context's cache, so a tenant sees its own warm-tier repricing.
  Result<OptimizerDecision> Explain(const LocalizedQuery& query,
                                    const SessionContext& session) const;

  const MipIndex& index() const { return *index_; }
  const Optimizer& optimizer() const { return *optimizer_; }
  const EngineOptions& options() const { return options_; }

  /// The engine's worker pool; null when num_threads resolved to 1.
  ThreadPool* pool() const { return pool_.get(); }

  /// The session cache; null when the byte budget is 0 (the default).
  QueryCache* cache() const { return cache_.get(); }

 private:
  Engine() = default;

  /// ExecuteBatch with one token per query (`cancels.size()` equals
  /// `queries.size()`), every query on `forced` when it is set.
  BatchResult Run(std::span<const LocalizedQuery> queries, QueryCache* cache,
                  std::span<const CancelToken* const> cancels,
                  std::optional<PlanKind> forced) const;
  /// The batch of one; its result carries the batch's cache telemetry.
  Result<QueryResult> RunOne(const LocalizedQuery& query,
                             const SessionContext& session,
                             std::optional<PlanKind> forced) const;

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MipIndex> index_;
  std::unique_ptr<CardinalityEstimator> cardinality_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<QueryCache> cache_;
};

}  // namespace colarm

#endif  // COLARM_CORE_ENGINE_H_
