#ifndef COLARM_CORE_ENGINE_H_
#define COLARM_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/optimizer.h"
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
};

// The session cache is gone: SELECT from the vertical index costs less
// than any of its tiers did. The end-to-end benchmark (perfbench/), which
// changes only on its own, still compiles against the names below, so they
// stay as inert shells. The benchmark-only change (ROADMAP item 4) removes
// each of them.

/// Empty. Removed by the benchmark-only change (ROADMAP item 4).
struct QueryCacheOptions {};

/// Always zero: nothing is cached. It keeps the counters of the STATS
/// `cache` line, whose wire layout the benchmark compares byte for byte.
/// Removed by the benchmark-only change (ROADMAP item 4).
struct CacheTelemetry {
  uint64_t hits_exact = 0;
  uint64_t hits_containment = 0;
  uint64_t hits_compose = 0;
  uint64_t hits_count_memo = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t admission_rejects = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// Holds nothing; the engine ignores it. Removed by the benchmark-only
/// change (ROADMAP item 4).
class QueryCache {
 public:
  QueryCache(const MipIndex& /*index*/, QueryCacheOptions /*options*/) {}
  CacheTelemetry telemetry() const { return {}; }
};

/// Outcome of one query: the localized rules plus which plan ran, why, and
/// what it cost.
struct QueryResult {
  RuleSet rules;
  PlanKind plan_used = PlanKind::kSEV;
  bool chosen_by_optimizer = false;
  PlanStats stats;
  OptimizerDecision decision;
  /// Always zero. Removed by the benchmark-only change (ROADMAP item 4).
  CacheTelemetry cache;
};

/// Outcome of Engine::ExecuteBatch.
struct BatchResult {
  /// One entry per input query, in input order: its result, or the status
  /// that failed it alone (invalid query, cancel token fired).
  std::vector<Result<QueryResult>> results;
  /// Focal-subset materializations avoided because an earlier executed
  /// query of the batch selects the same box.
  uint32_t subsets_shared = 0;
  /// Queries answered with an identical earlier query's outcome (same
  /// query, same cancel token).
  uint32_t duplicates_reused = 0;
};

/// Per-call execution context for multi-tenant serving (src/server): a
/// cooperative cancellation token (per-request deadline, shutdown drain).
/// Default-constructed it is byte-identical to the plain entry points.
struct SessionContext {
  /// Ignored. Removed by the benchmark-only change (ROADMAP item 4).
  QueryCache* cache = nullptr;
  /// When set, the plan executors poll it and the call returns
  /// kDeadlineExceeded instead of a result once it fires. A token that has
  /// fired before the query's SELECT fails it. (ExecuteBatch takes one
  /// token per query instead.)
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

  /// Executes `query` under a session context's cancellation token
  /// (request deadlines). The batch of one.
  Result<QueryResult> Execute(const LocalizedQuery& query,
                              const SessionContext& session) const;

  /// Executes `query` with a caller-forced plan (used by benchmarks and
  /// the plan-equivalence tests).
  Result<QueryResult> ExecuteWithPlan(const LocalizedQuery& query,
                                      PlanKind kind) const;

  /// Multi-query execution — the paper's future-work item (b) and the
  /// engine's only query pipeline (Execute is a batch of one). Each
  /// distinct focal box is selected once, concurrently; each query's plan
  /// is chosen, and the queries execute on the engine's pool concurrently
  /// with each other. A query identical to an earlier one under the same
  /// cancel token shares that query's outcome.
  ///
  /// Every result equals the query's standalone Execute in rules, plan and
  /// every effort counter, for any thread count.
  ///
  /// `cancels` is empty (nothing is cancelled) or holds one token per query
  /// (null = never cancelled); any other size fails every slot with
  /// kInvalidArgument. Failures stay in their slot.
  BatchResult ExecuteBatch(std::span<const LocalizedQuery> queries,
                           std::span<const CancelToken* const> cancels = {})
      const;

  /// Cost estimates for all plans without executing anything.
  Result<OptimizerDecision> Explain(const LocalizedQuery& query) const;

  const MipIndex& index() const { return *index_; }
  const Optimizer& optimizer() const { return *optimizer_; }
  const EngineOptions& options() const { return options_; }

  /// The engine's worker pool; null when num_threads resolved to 1.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  Engine() = default;

  /// ExecuteBatch with one token per query (`cancels.size()` equals
  /// `queries.size()`), every query on `forced` when it is set.
  BatchResult Run(std::span<const LocalizedQuery> queries,
                  std::span<const CancelToken* const> cancels,
                  std::optional<PlanKind> forced) const;
  /// The batch of one.
  Result<QueryResult> RunOne(const LocalizedQuery& query,
                             const CancelToken* cancel,
                             std::optional<PlanKind> forced) const;

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MipIndex> index_;
  std::unique_ptr<CardinalityEstimator> cardinality_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace colarm

#endif  // COLARM_CORE_ENGINE_H_
