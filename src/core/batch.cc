#include "core/batch.h"

#include <map>
#include <memory>
#include <mutex>

#include "common/timer.h"
#include "core/query_cache.h"

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

}  // namespace

Result<BatchResult> BatchExecutor::Execute(
    std::span<const LocalizedQuery> queries,
    const BatchOptions& options) const {
  Timer timer;
  BatchResult batch;
  batch.results.reserve(queries.size());

  const MipIndex& index = engine_->index();
  const Schema& schema = index.dataset().schema();
  for (const LocalizedQuery& query : queries) {
    COLARM_RETURN_IF_ERROR(query.Validate(schema));
  }

  // Resolve the pool: inherit the engine's, run sequentially, or spin up a
  // dedicated pool for this batch.
  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = engine_->pool();
  if (options.num_threads == 1) {
    pool = nullptr;
  } else if (options.num_threads > 1) {
    own_pool = std::make_unique<ThreadPool>(options.num_threads);
    pool = own_pool.get();
  }

  QueryCache* cache = options.cache_override != nullptr ? options.cache_override
                                                       : engine_->cache();
  if (cache == nullptr && !IsParallel(pool)) {
    COLARM_RETURN_IF_ERROR(SequentialExecute(queries, options, &batch));
    batch.total_ms = timer.ElapsedMillis();
    return batch;
  }

  // Planned path (any parallelism; with a null pool every ParallelFor runs
  // inline in order). Planning stays sequential and cheap: detect
  // duplicates and group unique queries by focal box, reproducing the
  // sequential sharing counters exactly (first occurrence executes, every
  // later query with the same box counts as shared).
  const size_t n = queries.size();
  std::vector<size_t> rep(n);  // representative executing each query's work
  std::vector<size_t> unique;  // indices that actually execute
  std::map<std::string, size_t> duplicate_of;
  for (size_t i = 0; i < n; ++i) {
    rep[i] = i;
    if (options.reuse_duplicate_results) {
      auto [it, inserted] = duplicate_of.try_emplace(QueryKey(queries[i]), i);
      if (!inserted) {
        rep[i] = it->second;
        ++batch.duplicates_reused;
        continue;
      }
    }
    unique.push_back(i);
  }

  // Focal subsets and (with a session cache) per-query decisions + memo
  // transactions. With a cache, all cache acquisitions happen here — in
  // first-appearance input order, before any parallel execution — so cache
  // state transitions (recency, insertions, telemetry) are identical for
  // every thread count.
  std::vector<FocalSubset> boxes;
  std::vector<const FocalSubset*> shared(n, nullptr);
  std::vector<OptimizerDecision> decisions(n);
  std::vector<std::unique_ptr<CountMemoTxn>> txns(n);
  std::vector<uint64_t> select_checks(n, 0);
  CacheTelemetry before;
  if (cache != nullptr) {
    before = cache->telemetry();
    const bool memo = cache->options().count_memo;
    std::map<std::string, size_t> box_of;
    std::vector<size_t> box_index(n, 0);
    // Acquisitions append to `boxes`; pointers are taken only after the
    // loop, when the vector is stable.
    for (size_t i : unique) {
      Rect box = queries[i].ToRect(schema);
      CacheHint hint = cache->Probe(box);
      decisions[i] = engine_->optimizer().Choose(queries[i], &hint);
      if (memo) {
        txns[i] = cache->BeginTxn(box, queries[i].constraints.CacheKey());
      }
      if (options.share_subsets) {
        auto [it, inserted] =
            box_of.try_emplace(CanonicalBoxKey(box), boxes.size());
        if (inserted) {
          // Shared subsets carry no per-query SELECT charge (the cache-less
          // batch materializes them outside any query too).
          boxes.push_back(cache->Acquire(box, nullptr).subset);
        } else {
          ++batch.subsets_shared;
        }
        box_index[i] = it->second;
      } else {
        // Unshared mode: every unique query pays the cold per-query SELECT
        // price, exactly like a cache-less run.
        box_index[i] = boxes.size();
        boxes.push_back(cache->Acquire(box, &select_checks[i]).subset);
      }
    }
    for (size_t i : unique) shared[i] = &boxes[box_index[i]];
  } else if (options.share_subsets) {
    // Distinct focal boxes of the unique queries, each materialized once —
    // concurrently, since the SELECT scans are independent.
    std::map<std::string, size_t> box_of;
    std::vector<Rect> rects;
    std::vector<size_t> box_index(n, 0);
    for (size_t i : unique) {
      Rect box = queries[i].ToRect(schema);
      std::string key = CanonicalBoxKey(box);
      auto [it, inserted] = box_of.try_emplace(std::move(key), rects.size());
      if (inserted) {
        rects.push_back(std::move(box));
      } else {
        ++batch.subsets_shared;
      }
      box_index[i] = it->second;
    }
    boxes.resize(rects.size());
    ParallelFor(pool, rects.size(), [&](size_t b) {
      boxes[b] = FocalSubset::Materialize(index.dataset(), rects[b]);
    });
    for (size_t i : unique) shared[i] = &boxes[box_index[i]];
  }

  // Unique queries execute concurrently (coarse units, dynamically
  // claimed); each also passes the pool down so a lone heavy query still
  // parallelizes its record-level operators. Results land in input slots,
  // so input order is preserved by construction. Memo reads see the
  // pre-batch cache state (transactions commit below), so every query's
  // result is independent of execution interleaving.
  std::vector<QueryResult> results(n);
  Status failure = Status::OK();
  std::mutex failure_mutex;
  ParallelFor(pool, unique.size(), [&](size_t u) {
    const size_t i = unique[u];
    const LocalizedQuery& query = queries[i];
    OptimizerDecision decision = cache != nullptr
                                     ? decisions[i]
                                     : engine_->optimizer().Choose(query);
    PlanKind kind =
        options.use_optimizer ? decision.chosen : options.forced_plan;
    PlanExecOptions exec;
    exec.rulegen = engine_->options().rulegen;
    exec.shared_subset = shared[i];
    exec.pool = pool;
    exec.cache = cache;
    exec.memo_txn = txns[i].get();
    exec.cancel = options.cancel;
    Result<PlanResult> plan = ExecutePlan(kind, index, query, exec);
    if (!plan.ok()) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (failure.ok()) failure = plan.status();
      return;
    }
    results[i].rules = std::move(plan->rules);
    results[i].plan_used = kind;
    results[i].chosen_by_optimizer = options.use_optimizer;
    results[i].stats = plan->stats;
    results[i].stats.record_checks += select_checks[i];
    results[i].decision = decision;
  });
  if (!failure.ok()) return failure;

  // Commit the buffered count memos at the batch's sequential tail, in
  // input order — the other half of the determinism contract.
  if (cache != nullptr) {
    for (size_t i : unique) {
      if (txns[i] != nullptr) cache->Commit(txns[i].get());
    }
    const CacheTelemetry after = cache->telemetry();
    batch.cache.hits_exact = after.hits_exact - before.hits_exact;
    batch.cache.hits_containment =
        after.hits_containment - before.hits_containment;
    batch.cache.hits_count_memo =
        after.hits_count_memo - before.hits_count_memo;
    batch.cache.hits_compose = after.hits_compose - before.hits_compose;
    batch.cache.misses = after.misses - before.misses;
    batch.cache.evictions = after.evictions - before.evictions;
    batch.cache.admission_rejects =
        after.admission_rejects - before.admission_rejects;
    batch.cache.bytes = after.bytes;
    batch.cache.entries = after.entries;
  }

  for (size_t i = 0; i < n; ++i) {
    batch.results.push_back(rep[i] == i ? std::move(results[i])
                                        : batch.results[rep[i]]);
  }
  batch.total_ms = timer.ElapsedMillis();
  return batch;
}

Status BatchExecutor::SequentialExecute(
    std::span<const LocalizedQuery> queries, const BatchOptions& options,
    BatchResult* batch) const {
  const MipIndex& index = engine_->index();
  const Schema& schema = index.dataset().schema();
  std::map<std::string, size_t> duplicate_of;
  std::map<std::string, FocalSubset> subsets;

  for (size_t i = 0; i < queries.size(); ++i) {
    const LocalizedQuery& query = queries[i];
    if (options.reuse_duplicate_results) {
      auto [it, inserted] = duplicate_of.try_emplace(QueryKey(query), i);
      if (!inserted) {
        batch->results.push_back(batch->results[it->second]);
        ++batch->duplicates_reused;
        continue;
      }
    }

    const FocalSubset* shared = nullptr;
    if (options.share_subsets) {
      Rect box = query.ToRect(schema);
      std::string key = CanonicalBoxKey(box);
      auto it = subsets.find(key);
      if (it == subsets.end()) {
        it = subsets
                 .emplace(std::move(key),
                          FocalSubset::Materialize(index.dataset(), box))
                 .first;
      } else {
        ++batch->subsets_shared;
      }
      shared = &it->second;
    }

    OptimizerDecision decision = engine_->optimizer().Choose(query);
    PlanKind kind =
        options.use_optimizer ? decision.chosen : options.forced_plan;
    PlanExecOptions exec;
    exec.rulegen = engine_->options().rulegen;
    exec.shared_subset = shared;
    exec.cancel = options.cancel;
    Result<PlanResult> plan = ExecutePlan(kind, index, query, exec);
    if (!plan.ok()) return plan.status();

    QueryResult result;
    result.rules = std::move(plan->rules);
    result.plan_used = kind;
    result.chosen_by_optimizer = options.use_optimizer;
    result.stats = plan->stats;
    result.decision = decision;
    batch->results.push_back(std::move(result));
  }
  return Status::OK();
}

}  // namespace colarm
