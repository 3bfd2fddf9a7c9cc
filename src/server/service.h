#ifndef COLARM_SERVER_SERVICE_H_
#define COLARM_SERVER_SERVICE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "server/protocol.h"

namespace colarm {

struct ServiceOptions {
  /// Unused. Removed by the benchmark-only change (ROADMAP item 4).
  QueryCacheOptions tenant_cache;
  /// Admission control: total MINEs admitted but not yet answered, across
  /// all tenants. Excess requests fast-fail with ERR BUSY.
  uint32_t max_inflight = 64;
  /// Per-tenant share of the in-flight bound, so one chatty tenant cannot
  /// starve the rest (fairness: a tenant is rejected once it alone holds
  /// this many slots, even when the global bound has room).
  uint32_t max_tenant_inflight = 16;
  /// Per-request deadline in milliseconds; 0 = none. The clock starts at
  /// admission, so queue wait counts against it.
  double deadline_ms = 0.0;
};

/// Counters one tenant accumulates across its connections. Guarded by the
/// owning Tenant's mutex.
struct TenantStats {
  uint64_t mines = 0;             // MINE commands that reached execution
  uint64_t mine_errors = 0;       // of which failed (EXEC / DEADLINE)
  uint64_t rules = 0;             // total rules returned
  uint64_t explains = 0;
  uint64_t busy_rejections = 0;   // MINEs refused by admission control
};

/// Deterministic STATS payload for one tenant. Exposed as a free function
/// so the smoke test can render its expectation from a direct-engine
/// replay's counters. The `cache` line keeps the wire layout of the
/// retired session cache with every counter 0, and `telemetry` is
/// ignored. The benchmark renders its expected STATS through this
/// signature; the benchmark-only change (ROADMAP item 4) drops the
/// parameter and the line.
std::string RenderStatsPayload(const std::string& tenant_name,
                               const TenantStats& stats,
                               const CacheTelemetry* telemetry,
                               uint32_t tenant_inflight,
                               uint64_t global_inflight);

/// One tenant: a name and usage counters. Tenants are created on first
/// HELLO and live for the server's lifetime; several connections may share
/// one tenant.
class Tenant {
 public:
  explicit Tenant(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  uint32_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  friend class Service;

  std::string name_;
  std::atomic<uint32_t> inflight_{0};

  mutable std::mutex stats_mutex_;
  TenantStats stats_;
};

/// The tenant registry plus everything request handling needs besides the
/// event loop: admission control, batched execution against the shared
/// engine, and deterministic response rendering. Thread-safe; the epoll loops call Admit/Release/GetTenant
/// (and answer idle connections' EXPLAIN/STATS inline) while the
/// dispatcher workers call the Execute* methods for several tenants at
/// once.
class Service {
 public:
  Service(const Engine& engine, ServiceOptions options);

  const Engine& engine() const { return *engine_; }
  const ServiceOptions& options() const { return options_; }

  /// Finds or creates the tenant (HELLO).
  std::shared_ptr<Tenant> GetTenant(const std::string& name);

  /// Tries to admit one MINE for the tenant; false = fast-fail BUSY.
  /// Each successful Admit must be paired with a Release once the
  /// response is rendered.
  bool Admit(Tenant* tenant);
  void Release(Tenant* tenant);

  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// One admitted MINE awaiting execution.
  struct MineRequest {
    LocalizedQuery query;
    /// Absolute deadline (admission time + deadline_ms); unset when the
    /// service has no deadline configured.
    bool has_deadline = false;
    CancelToken::Clock::time_point deadline{};
  };

  /// Executes a group of same-tenant MINEs, of any size, concurrently as
  /// one Engine::ExecuteBatch, and renders one full response (OK payload
  /// or ERR line) per request, in order. Each request runs under its own
  /// deadline, so a failure stays with its request; one whose deadline
  /// passed while it was queued answers ERR DEADLINE without running. `kill` is the server's drain kill-switch
  /// (may be null).
  std::vector<std::string> ExecuteMineGroup(Tenant* tenant,
                                            std::span<const MineRequest> group,
                                            const CancelToken* kill);

  /// Executes EXPLAIN (nothing runs; cheap enough for inline handling).
  std::string ExecuteExplain(Tenant* tenant, const LocalizedQuery& query);

  /// Renders the STATS payload: tenant counters, the zeroed cache line
  /// and global admission state.
  std::string RenderStats(Tenant* tenant) const;

  /// Telemetry hook for admission rejections (counts into STATS).
  void NoteBusy(Tenant* tenant);

 private:
  const Engine* engine_;
  ServiceOptions options_;

  mutable std::mutex tenants_mutex_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;

  std::atomic<uint64_t> inflight_{0};
};

}  // namespace colarm

#endif  // COLARM_SERVER_SERVICE_H_
