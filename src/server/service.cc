#include "server/service.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/cache_persist.h"

namespace colarm {

std::string RenderStatsPayload(const std::string& tenant_name,
                               const TenantStats& stats,
                               const CacheTelemetry* telemetry,
                               uint32_t tenant_inflight,
                               uint64_t global_inflight) {
  std::string out = StrFormat(
      "tenant %s\n"
      "mines %llu errors %llu rules %llu explains %llu busy %llu\n",
      tenant_name.c_str(), static_cast<unsigned long long>(stats.mines),
      static_cast<unsigned long long>(stats.mine_errors),
      static_cast<unsigned long long>(stats.rules),
      static_cast<unsigned long long>(stats.explains),
      static_cast<unsigned long long>(stats.busy_rejections));
  if (telemetry != nullptr) {
    out += StrFormat(
        "cache exact %llu containment %llu compose %llu memo %llu "
        "misses %llu evictions %llu admitrej %llu bytes %llu entries %llu\n",
        static_cast<unsigned long long>(telemetry->hits_exact),
        static_cast<unsigned long long>(telemetry->hits_containment),
        static_cast<unsigned long long>(telemetry->hits_compose),
        static_cast<unsigned long long>(telemetry->hits_count_memo),
        static_cast<unsigned long long>(telemetry->misses),
        static_cast<unsigned long long>(telemetry->evictions),
        static_cast<unsigned long long>(telemetry->admission_rejects),
        static_cast<unsigned long long>(telemetry->bytes),
        static_cast<unsigned long long>(telemetry->entries));
  } else {
    out += "cache disabled\n";
  }
  out += StrFormat("inflight tenant %u global %llu\n", tenant_inflight,
                   static_cast<unsigned long long>(global_inflight));
  return out;
}

Tenant::Tenant(const Engine& engine, std::string name,
               const QueryCacheOptions& cache_options)
    : name_(std::move(name)) {
  if (cache_options.enabled && cache_options.byte_budget > 0) {
    cache_ = std::make_unique<QueryCache>(engine.index(), cache_options);
  }
}

Service::Service(const Engine& engine, ServiceOptions options)
    : engine_(&engine), options_(options) {}

std::shared_ptr<Tenant> Service::GetTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  auto tenant =
      std::make_shared<Tenant>(*engine_, name, options_.tenant_cache);
  if (!options_.cache_dir.empty() && tenant->cache() != nullptr) {
    // Warm start is strictly best-effort: a missing, corrupt, or
    // index-mismatched file leaves the tenant on a cold cache.
    (void)LoadQueryCache(engine_->index(), CachePathFor(name),
                         tenant->cache());
  }
  tenants_.emplace(name, tenant);
  return tenant;
}

std::string Service::CachePathFor(const std::string& tenant_name) const {
  // Tenant names come off the wire; anything outside [A-Za-z0-9_-] is
  // mapped to '_' so a hostile HELLO cannot traverse out of cache_dir.
  std::string file;
  file.reserve(tenant_name.size());
  for (char c : tenant_name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    file.push_back(safe ? c : '_');
  }
  return options_.cache_dir + "/" + file + ".ccache";
}

size_t Service::PersistCaches() const {
  if (options_.cache_dir.empty()) return 0;
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  size_t saved = 0;
  for (const auto& [name, tenant] : tenants_) {
    if (tenant->cache() == nullptr) continue;
    if (SaveQueryCache(*tenant->cache(), engine_->index(), CachePathFor(name))
            .ok()) {
      ++saved;
    }
  }
  return saved;
}

bool Service::Admit(Tenant* tenant) {
  // Optimistic increments with rollback: both bounds are advisory load
  // limits, so a transient overshoot by a concurrent admitter is
  // harmless — the rollback keeps the steady-state counts exact.
  const uint64_t global = inflight_.fetch_add(1, std::memory_order_relaxed);
  if (global >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  const uint32_t mine =
      tenant->inflight_.fetch_add(1, std::memory_order_relaxed);
  if (mine >= options_.max_tenant_inflight) {
    tenant->inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void Service::Release(Tenant* tenant) {
  tenant->inflight_.fetch_sub(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void Service::NoteBusy(Tenant* tenant) {
  std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
  tenant->stats_.busy_rejections++;
}

std::string Service::ExecuteSingleMine(Tenant* tenant,
                                       const MineRequest& request,
                                       const CancelToken* kill) {
  CancelToken token;
  token.SetParent(kill);
  if (request.has_deadline) token.SetDeadline(request.deadline);

  // A request whose deadline lapsed while queued fails here instead of
  // charging the engine for work the client already gave up on.
  if (token.Cancelled()) {
    std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
    tenant->stats_.mines++;
    tenant->stats_.mine_errors++;
    return ErrResponse("DEADLINE", "deadline expired before execution");
  }

  SessionContext session;
  session.cache = tenant->cache();
  session.cancel = &token;
  Result<QueryResult> result = engine_->Execute(request.query, session);

  {
    // Counters only: rendering runs after the lock is released, so a
    // STATS on the same tenant never waits behind a large answer.
    std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
    tenant->stats_.mines++;
    if (!result.ok()) {
      tenant->stats_.mine_errors++;
    } else {
      tenant->stats_.rules += result->rules.rules.size();
    }
  }
  if (!result.ok()) {
    return ErrResponse(StatusErrCode(result.status()),
                       result.status().message());
  }
  return OkResponse(
      RenderMineResult(engine_->index().dataset().schema(), *result));
}

std::vector<std::string> Service::ExecuteMineGroup(
    Tenant* tenant, std::span<const MineRequest> group,
    const CancelToken* kill) {
  std::vector<std::string> responses;
  responses.reserve(group.size());
  if (group.size() >= 2) {
    // Batch the group: subset sharing and duplicate reuse across the
    // tenant's pipelined requests, against the tenant's own cache. The
    // batch runs under the earliest deadline in the group; a batch-level
    // failure (one poisoned query fails the whole batch) falls through to
    // the per-request path below, which also honours each request's own
    // deadline.
    CancelToken token;
    token.SetParent(kill);
    for (const MineRequest& request : group) {
      if (!request.has_deadline) continue;
      if (!token.has_deadline() || request.deadline < token.deadline()) {
        token.SetDeadline(request.deadline);
      }
    }
    std::vector<LocalizedQuery> queries;
    queries.reserve(group.size());
    for (const MineRequest& request : group) queries.push_back(request.query);

    BatchOptions options;
    options.cache_override = tenant->cache();
    options.cancel = &token;
    BatchExecutor executor(*engine_);
    Result<BatchResult> batch = executor.Execute(queries, options);
    if (batch.ok()) {
      {
        std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
        for (const QueryResult& result : batch->results) {
          tenant->stats_.mines++;
          tenant->stats_.rules += result.rules.rules.size();
        }
      }
      for (const QueryResult& result : batch->results) {
        responses.push_back(OkResponse(
            RenderMineResult(engine_->index().dataset().schema(), result)));
      }
      return responses;
    }
  }
  for (const MineRequest& request : group) {
    responses.push_back(ExecuteSingleMine(tenant, request, kill));
  }
  return responses;
}

std::string Service::ExecuteExplain(Tenant* tenant,
                                    const LocalizedQuery& query) {
  SessionContext session;
  session.cache = tenant->cache();
  Result<OptimizerDecision> decision = engine_->Explain(query, session);
  std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
  tenant->stats_.explains++;
  if (!decision.ok()) {
    return ErrResponse(StatusErrCode(decision.status()),
                       decision.status().message());
  }
  return OkResponse(RenderExplain(*decision));
}

std::string Service::RenderStats(Tenant* tenant) const {
  CacheTelemetry telemetry;
  const bool has_cache = tenant->cache() != nullptr;
  if (has_cache) telemetry = tenant->cache()->telemetry();
  TenantStats stats;
  {
    std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
    stats = tenant->stats_;
  }
  return OkResponse(RenderStatsPayload(
      tenant->name(), stats, has_cache ? &telemetry : nullptr,
      tenant->inflight(), inflight_.load(std::memory_order_relaxed)));
}

}  // namespace colarm
