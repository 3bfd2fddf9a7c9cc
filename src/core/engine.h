#ifndef COLARM_CORE_ENGINE_H_
#define COLARM_CORE_ENGINE_H_

#include <memory>

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
  /// queries and batches plus the per-(box, itemset) count memo. Disabled
  /// by default — the default options preserve cache-less behaviour
  /// exactly. When enabled, warm execution stays byte-identical to cold in
  /// rules, effort counters, and plan choice; only wall time and the
  /// decision's cache-provenance field change.
  QueryCacheOptions cache;
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
  /// after it. All zero when the cache is disabled.
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
  /// kDeadlineExceeded instead of a result once it fires.
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
  /// (per-tenant sessions) and cancellation token (request deadlines).
  Result<QueryResult> Execute(const LocalizedQuery& query,
                              const SessionContext& session) const;

  /// Executes `query` with a caller-forced plan (used by benchmarks and
  /// the plan-equivalence tests).
  Result<QueryResult> ExecuteWithPlan(const LocalizedQuery& query,
                                      PlanKind kind) const;

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

  /// The session cache; null when disabled (the default) or when the byte
  /// budget is 0. Shared with the BatchExecutor.
  QueryCache* cache() const { return cache_.get(); }

 private:
  Engine() = default;

  Result<QueryResult> Run(const LocalizedQuery& query, PlanKind forced,
                          bool use_optimizer,
                          const SessionContext& session = {}) const;

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MipIndex> index_;
  std::unique_ptr<CardinalityEstimator> cardinality_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<QueryCache> cache_;
};

}  // namespace colarm

#endif  // COLARM_CORE_ENGINE_H_
