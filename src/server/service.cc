#include "server/service.h"

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
  if (cache_options.byte_budget > 0) {
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

std::vector<std::string> Service::ExecuteMineGroup(
    Tenant* tenant, std::span<const MineRequest> group,
    const CancelToken* kill) {
  // One batch against the tenant's cache, one token per request (its own
  // deadline, chained to the drain kill-switch), so a request that fails
  // fails alone.
  std::vector<LocalizedQuery> queries;
  queries.reserve(group.size());
  std::vector<CancelToken> tokens(group.size());
  std::vector<const CancelToken*> cancels;
  cancels.reserve(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    queries.push_back(group[i].query);
    tokens[i].SetParent(kill);
    if (group[i].has_deadline) tokens[i].SetDeadline(group[i].deadline);
    cancels.push_back(&tokens[i]);
  }
  const BatchResult batch =
      engine_->ExecuteBatch(queries, tenant->cache(), cancels);

  {
    // Counters only: rendering runs after the lock is released, so a
    // STATS on the same tenant never waits behind a large answer.
    std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
    for (const Result<QueryResult>& result : batch.results) {
      tenant->stats_.mines++;
      if (!result.ok()) {
        tenant->stats_.mine_errors++;
      } else {
        tenant->stats_.rules += result->rules.rules.size();
      }
    }
  }
  std::vector<std::string> responses;
  responses.reserve(group.size());
  for (const Result<QueryResult>& result : batch.results) {
    responses.push_back(
        result.ok()
            ? OkResponse(RenderMineResult(engine_->index().dataset().schema(),
                                          *result))
            : ErrResponse(StatusErrCode(result.status()),
                          result.status().message()));
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
