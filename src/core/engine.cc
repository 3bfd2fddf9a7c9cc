#include "core/engine.h"

#include <string>
#include <utility>

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
  return engine;
}

std::vector<Result<QueryResult>> Engine::ExecuteBatch(
    std::span<const LocalizedQuery> queries,
    std::span<const CancelToken* const> cancels) const {
  if (!cancels.empty() && cancels.size() != queries.size()) {
    return std::vector<Result<QueryResult>>(
        queries.size(),
        Status::InvalidArgument("ExecuteBatch: " +
                                std::to_string(cancels.size()) +
                                " cancel tokens for " +
                                std::to_string(queries.size()) + " queries"));
  }
  // The queries run concurrently (coarse units, claimed dynamically), each
  // also passing the pool down so a lone heavy query still parallelizes
  // its record-level operators. Every slot is overwritten.
  std::vector<Result<QueryResult>> results(queries.size(), Status::OK());
  ParallelFor(pool_.get(), queries.size(), [&](size_t i) {
    results[i] = Run(queries[i], cancels.empty() ? nullptr : cancels[i],
                     std::nullopt);
  });
  return results;
}

Result<QueryResult> Engine::Run(const LocalizedQuery& query,
                                const CancelToken* cancel,
                                std::optional<PlanKind> forced) const {
  COLARM_RETURN_IF_ERROR(query.Validate(index_->dataset().schema()));
  if (cancel != nullptr && cancel->Cancelled()) {
    return Status::DeadlineExceeded("deadline expired before execution");
  }
  QueryResult result;
  if (!forced.has_value()) result.decision = optimizer_->Choose(query);
  const PlanKind kind = forced.value_or(result.decision.chosen);
  PlanExecOptions exec;
  exec.rulegen = options_.rulegen;
  exec.pool = pool_.get();
  exec.cancel = cancel;
  Result<PlanResult> plan = ExecutePlan(kind, *index_, query, exec);
  if (!plan.ok()) return plan.status();
  result.rules = std::move(plan->rules);
  result.plan_used = kind;
  result.chosen_by_optimizer = !forced.has_value();
  result.stats = plan->stats;
  return result;
}

Result<QueryResult> Engine::Execute(const LocalizedQuery& query) const {
  return Run(query, nullptr, std::nullopt);
}

Result<QueryResult> Engine::Execute(const LocalizedQuery& query,
                                    const SessionContext& session) const {
  return Run(query, session.cancel, std::nullopt);
}

Result<QueryResult> Engine::ExecuteWithPlan(const LocalizedQuery& query,
                                            PlanKind kind) const {
  return Run(query, nullptr, kind);
}

Result<OptimizerDecision> Engine::Explain(const LocalizedQuery& query) const {
  COLARM_RETURN_IF_ERROR(query.Validate(index_->dataset().schema()));
  return optimizer_->Choose(query);
}

}  // namespace colarm
