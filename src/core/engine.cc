#include "core/engine.h"

#include "mip/serialize.h"

namespace colarm {

namespace {

// Loads the cached index when compatible with the requested options;
// otherwise mines it (and refreshes the cache, best effort). Compatibility
// compares the *entire* options struct: every field shapes the built index
// (serialize.cc round-trips them all), so a partial comparison would
// silently serve an index built with different parameters.
Result<MipIndex> BuildOrLoadIndex(const Dataset& dataset,
                                  const EngineOptions& options,
                                  ThreadPool* pool) {
  if (!options.index_cache_path.empty()) {
    Result<MipIndex> loaded = LoadMipIndex(dataset, options.index_cache_path);
    if (loaded.ok() && loaded->options() == options.index) {
      return loaded;
    }
  }
  Result<MipIndex> built = MipIndex::Build(dataset, options.index, pool);
  if (built.ok() && !options.index_cache_path.empty()) {
    // A failed cache write must not fail the build.
    (void)SaveMipIndex(built.value(), options.index_cache_path);
  }
  return built;
}

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Build(const Dataset& dataset,
                                              const EngineOptions& options) {
  auto engine = std::unique_ptr<Engine>(new Engine());
  engine->options_ = options;
  const unsigned threads =
      options.num_threads == 0 ? ThreadPool::DefaultThreads()
                               : options.num_threads;
  if (threads > 1) engine->pool_ = std::make_unique<ThreadPool>(threads);

  Result<MipIndex> index =
      BuildOrLoadIndex(dataset, options, engine->pool_.get());
  if (!index.ok()) return index.status();
  engine->index_ = std::make_unique<MipIndex>(std::move(index.value()));

  CostConstants constants =
      options.calibrate ? Calibrate(dataset) : options.cost_constants;
  engine->cardinality_ = std::make_unique<CardinalityEstimator>(
      dataset.schema(), engine->index_->histograms(), dataset.num_records());
  engine->optimizer_ = std::make_unique<Optimizer>(
      CostModel(engine->index_->stats(), *engine->cardinality_, constants));
  if (options.cache.enabled && options.cache.byte_budget > 0) {
    engine->cache_ =
        std::make_unique<QueryCache>(*engine->index_, options.cache);
  }
  return engine;
}

Result<QueryResult> Engine::Run(const LocalizedQuery& query, PlanKind forced,
                                bool use_optimizer,
                                const SessionContext& session) const {
  COLARM_RETURN_IF_ERROR(query.Validate(index_->dataset().schema()));

  // A session may carry its own cache (per-tenant serving); otherwise the
  // engine-owned one (possibly null = caching off) applies.
  QueryCache* cache = session.cache != nullptr ? session.cache : cache_.get();

  // Probe before planning so the decision records what the SELECT stage
  // will actually do; the memo transaction buffers this query's count
  // discoveries and commits them after execution (standalone queries are
  // the sequential points the cache's determinism contract requires).
  CacheHint hint;
  CacheTelemetry before;
  std::unique_ptr<CountMemoTxn> txn;
  if (cache != nullptr) {
    const Rect box = query.ToRect(index_->dataset().schema());
    hint = cache->Probe(box);
    before = cache->telemetry();
    if (cache->options().count_memo) {
      txn = cache->BeginTxn(box, query.constraints.CacheKey());
    }
  }

  OptimizerDecision decision =
      optimizer_->Choose(query, cache != nullptr ? &hint : nullptr);
  const PlanKind kind = use_optimizer ? decision.chosen : forced;

  PlanExecOptions exec;
  exec.rulegen = options_.rulegen;
  exec.pool = pool_.get();
  exec.cache = cache;
  exec.memo_txn = txn.get();
  exec.cancel = session.cancel;
  Result<PlanResult> plan = ExecutePlan(kind, *index_, query, exec);
  if (!plan.ok()) return plan.status();
  if (txn != nullptr) cache->Commit(txn.get());

  QueryResult result;
  result.rules = std::move(plan->rules);
  result.plan_used = kind;
  result.chosen_by_optimizer = use_optimizer;
  result.stats = plan->stats;
  result.decision = decision;
  if (cache != nullptr) {
    const CacheTelemetry after = cache->telemetry();
    result.cache.hits_exact = after.hits_exact - before.hits_exact;
    result.cache.hits_containment =
        after.hits_containment - before.hits_containment;
    result.cache.hits_count_memo =
        after.hits_count_memo - before.hits_count_memo;
    result.cache.hits_compose = after.hits_compose - before.hits_compose;
    result.cache.misses = after.misses - before.misses;
    result.cache.evictions = after.evictions - before.evictions;
    result.cache.admission_rejects =
        after.admission_rejects - before.admission_rejects;
    result.cache.bytes = after.bytes;
    result.cache.entries = after.entries;
  }
  return result;
}

Result<QueryResult> Engine::Execute(const LocalizedQuery& query) const {
  return Run(query, PlanKind::kSEV, /*use_optimizer=*/true);
}

Result<QueryResult> Engine::Execute(const LocalizedQuery& query,
                                    const SessionContext& session) const {
  return Run(query, PlanKind::kSEV, /*use_optimizer=*/true, session);
}

Result<QueryResult> Engine::ExecuteWithPlan(const LocalizedQuery& query,
                                            PlanKind kind) const {
  return Run(query, kind, /*use_optimizer=*/false);
}

Result<OptimizerDecision> Engine::Explain(const LocalizedQuery& query) const {
  return Explain(query, SessionContext{});
}

Result<OptimizerDecision> Engine::Explain(const LocalizedQuery& query,
                                          const SessionContext& session) const {
  COLARM_RETURN_IF_ERROR(query.Validate(index_->dataset().schema()));
  QueryCache* cache = session.cache != nullptr ? session.cache : cache_.get();
  if (cache != nullptr) {
    CacheHint hint = cache->Probe(query.ToRect(index_->dataset().schema()));
    return optimizer_->Choose(query, &hint);
  }
  return optimizer_->Choose(query);
}

}  // namespace colarm
