#include "core/engine.h"

#include <map>
#include <string>
#include <utility>

#include "common/timer.h"
#include "mip/serialize.h"

namespace colarm {

namespace {

// Order-sensitive byte key of a query (duplicate detection).
std::string QueryKey(const LocalizedQuery& query) {
  std::string key;
  auto push32 = [&key](uint32_t v) {
    key.append(reinterpret_cast<const char*>(&v), 4);
  };
  for (const RangeSelection& range : query.ranges) {
    push32(range.attr);
    push32(range.lo);
    push32(range.hi);
  }
  key.push_back('|');
  for (AttrId a : query.item_attrs) push32(a);
  key.push_back('|');
  key.append(reinterpret_cast<const char*>(&query.minsupp), sizeof(double));
  key.append(reinterpret_cast<const char*>(&query.minconf), sizeof(double));
  // Constraints change the answer, so same-box queries with different
  // constraint sets must never be merged as duplicates.
  key.push_back('|');
  key.append(query.constraints.CacheKey());
  return key;
}

// Canonical byte key of a focal box: per-attribute [lo, hi] intervals in
// attribute order, so range order and redundant full-domain selections in
// the query cannot keep two queries from sharing one SELECT.
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

BatchResult Engine::ExecuteBatch(std::span<const LocalizedQuery> queries,
                                 std::span<const CancelToken* const> cancels)
    const {
  if (cancels.empty()) {
    const std::vector<const CancelToken*> none(queries.size(), nullptr);
    return Run(queries, none, std::nullopt);
  }
  if (cancels.size() != queries.size()) {
    BatchResult batch;
    batch.results.assign(
        queries.size(),
        Status::InvalidArgument("ExecuteBatch: " +
                                std::to_string(cancels.size()) +
                                " cancel tokens for " +
                                std::to_string(queries.size()) + " queries"));
    return batch;
  }
  return Run(queries, cancels, std::nullopt);
}

BatchResult Engine::Run(std::span<const LocalizedQuery> queries,
                        std::span<const CancelToken* const> cancels,
                        std::optional<PlanKind> forced) const {
  const size_t n = queries.size();
  const Dataset& dataset = index_->dataset();
  const Schema& schema = dataset.schema();

  // Validate, and map every query to the first identical one under the
  // same cancel token (`rep`); only those first copies execute. Keying on
  // the token keeps a request with its own deadline from inheriting
  // another request's failure.
  BatchResult batch;
  std::vector<Status> status(n);  // non-OK fails the slot (and its copies)
  std::vector<size_t> rep(n);
  std::vector<size_t> unique;
  std::map<std::pair<std::string, const CancelToken*>, size_t> first_of;
  for (size_t i = 0; i < n; ++i) {
    rep[i] = i;
    status[i] = queries[i].Validate(schema);
    if (!status[i].ok()) continue;
    auto [it, inserted] =
        first_of.try_emplace({QueryKey(queries[i]), cancels[i]}, i);
    if (!inserted) {
      rep[i] = it->second;
      ++batch.duplicates_reused;
      continue;
    }
    unique.push_back(i);
  }

  // Planning, in input order, and the distinct boxes to select. A query
  // whose token has already fired fails here, before its SELECT.
  struct Slot {
    FocalSubset subset;
    const FocalSubset* shared = nullptr;  // a box with 2+ users
    uint64_t select_checks = 0;
    double select_ms = 0.0;
    OptimizerDecision decision;
  };
  std::vector<Slot> slots(n);
  std::vector<size_t> live;
  std::map<std::string, size_t> box_of;
  std::vector<Rect> rects;
  std::vector<size_t> box_index(n, 0);
  for (size_t i : unique) {
    if (cancels[i] != nullptr && cancels[i]->Cancelled()) {
      status[i] = Status::DeadlineExceeded("deadline expired before execution");
      continue;
    }
    live.push_back(i);
    Rect box = queries[i].ToRect(schema);
    auto [it, inserted] =
        box_of.try_emplace(CanonicalBoxKey(box), rects.size());
    if (inserted) rects.push_back(std::move(box));
    box_index[i] = it->second;
    slots[i].decision = optimizer_->Choose(queries[i]);
  }

  // Each distinct box is selected once, concurrently (the selections are
  // independent), and every query selecting it is charged the full SELECT,
  // as if it had run alone.
  std::vector<FocalSubset> boxes(rects.size());
  std::vector<uint64_t> box_checks(rects.size(), 0);
  std::vector<double> box_ms(rects.size(), 0.0);
  std::vector<uint32_t> users(rects.size(), 0);
  ParallelFor(pool_.get(), rects.size(), [&](size_t b) {
    Timer timer;
    boxes[b] = FocalSubset::Materialize(dataset, index_->vertical(), rects[b],
                                        &box_checks[b]);
    box_ms[b] = timer.ElapsedMillis();
  });
  for (size_t i : live) ++users[box_index[i]];
  batch.subsets_shared = static_cast<uint32_t>(live.size() - rects.size());
  for (size_t i : live) {
    const size_t b = box_index[i];
    slots[i].select_checks = box_checks[b];
    slots[i].select_ms = box_ms[b];
    if (users[b] == 1) {
      slots[i].subset = std::move(boxes[b]);
    } else {
      slots[i].shared = &boxes[b];
    }
  }

  // Execution: the live queries run concurrently (coarse units, claimed
  // dynamically), each also passing the pool down so a lone heavy query
  // still parallelizes its record-level operators.
  std::vector<QueryResult> results(n);
  ParallelFor(pool_.get(), live.size(), [&](size_t u) {
    const size_t i = live[u];
    Slot& slot = slots[i];
    const PlanKind kind = forced.value_or(slot.decision.chosen);
    PlanExecOptions exec;
    exec.rulegen = options_.rulegen;
    exec.pool = pool_.get();
    exec.cancel = cancels[i];
    Result<PlanResult> plan =
        ExecutePlan(kind, *index_, queries[i], exec,
                    slot.shared != nullptr ? FocalSubset(*slot.shared)
                                           : std::move(slot.subset));
    if (!plan.ok()) {
      status[i] = plan.status();
      return;
    }
    QueryResult& result = results[i];
    result.rules = std::move(plan->rules);
    result.plan_used = kind;
    result.chosen_by_optimizer = !forced.has_value();
    result.stats = plan->stats;
    result.stats.record_checks += slot.select_checks;
    result.stats.select_ms += slot.select_ms;
    result.stats.total_ms += slot.select_ms;
    result.decision = std::move(slot.decision);
  });

  batch.results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rep[i];
    if (!status[r].ok()) {
      batch.results.emplace_back(status[r]);
    } else if (r == i) {
      batch.results.emplace_back(std::move(results[i]));
    } else {
      batch.results.push_back(batch.results[r]);
    }
  }
  return batch;
}

Result<QueryResult> Engine::RunOne(const LocalizedQuery& query,
                                   const CancelToken* cancel,
                                   std::optional<PlanKind> forced) const {
  return std::move(Run({&query, 1}, {&cancel, 1}, forced).results.front());
}

Result<QueryResult> Engine::Execute(const LocalizedQuery& query) const {
  return RunOne(query, nullptr, std::nullopt);
}

Result<QueryResult> Engine::Execute(const LocalizedQuery& query,
                                    const SessionContext& session) const {
  return RunOne(query, session.cancel, std::nullopt);
}

Result<QueryResult> Engine::ExecuteWithPlan(const LocalizedQuery& query,
                                            PlanKind kind) const {
  return RunOne(query, nullptr, kind);
}

Result<OptimizerDecision> Engine::Explain(const LocalizedQuery& query) const {
  COLARM_RETURN_IF_ERROR(query.Validate(index_->dataset().schema()));
  return optimizer_->Choose(query);
}

}  // namespace colarm
