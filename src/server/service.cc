#include "server/service.h"

#include "common/string_util.h"

namespace colarm {

std::string RenderStatsPayload(const std::string& tenant_name,
                               const TenantStats& stats,
                               const CacheTelemetry* /*telemetry*/,
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
  out += "cache exact 0 containment 0 compose 0 memo 0 misses 0 "
         "evictions 0 admitrej 0 bytes 0 entries 0\n";
  out += StrFormat("inflight tenant %u global %llu\n", tenant_inflight,
                   static_cast<unsigned long long>(global_inflight));
  return out;
}

Service::Service(const Engine& engine, ServiceOptions options)
    : engine_(&engine), options_(options) {}

std::shared_ptr<Tenant> Service::GetTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  auto tenant = std::make_shared<Tenant>(name);
  tenants_.emplace(name, tenant);
  return tenant;
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
  // One batch, one token per request (its own deadline, chained to the
  // drain kill-switch), so a request that fails fails alone.
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
      engine_->ExecuteBatch(queries, cancels);

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
  Result<OptimizerDecision> decision = engine_->Explain(query);
  std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
  tenant->stats_.explains++;
  if (!decision.ok()) {
    return ErrResponse(StatusErrCode(decision.status()),
                       decision.status().message());
  }
  return OkResponse(RenderExplain(*decision));
}

std::string Service::RenderStats(Tenant* tenant) const {
  TenantStats stats;
  {
    std::lock_guard<std::mutex> lock(tenant->stats_mutex_);
    stats = tenant->stats_;
  }
  return OkResponse(RenderStatsPayload(
      tenant->name(), stats, nullptr,
      tenant->inflight(), inflight_.load(std::memory_order_relaxed)));
}

}  // namespace colarm
