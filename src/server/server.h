#ifndef COLARM_SERVER_SERVER_H_
#define COLARM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/service.h"

namespace colarm {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available from port() after Start.
  uint16_t port = 0;
  /// Event-loop threads, each with its own epoll instance and its own
  /// SO_REUSEPORT listener (thread-per-core accept sharding). 0 = one per
  /// hardware thread, capped at 4.
  unsigned io_threads = 0;
  /// Request-line size cap; longer lines answer ERR TOOLONG and are
  /// discarded without desynchronizing the stream.
  size_t max_line_bytes = size_t{64} << 10;
  /// Most requests a dispatcher worker takes from one tenant's queue per
  /// turn; consecutive MINEs within the turn execute as one engine batch
  /// (Engine::ExecuteBatch). A tenant with work left after its turn goes
  /// to the back of the ready list, so other tenants are served in between.
  uint32_t batch_max = 16;
  /// Graceful-shutdown budget: how long Shutdown waits for admitted work
  /// to finish before firing the kill-switch and force-closing.
  double drain_timeout_ms = 5000.0;
  ServiceOptions service;
};

/// Whole-server counters (monotonic; approximate under concurrency).
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_admitted{0};
  std::atomic<uint64_t> busy_rejections{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> oversized_lines{0};
};

/// The multi-tenant COLARM query server (tools/colarm_server): epoll event
/// loops own the sockets and the protocol state machine; mining work is
/// admitted under the Service's bounds and queued on its tenant's strand, a
/// FIFO that at most one dispatcher worker runs at a time. The workers (as
/// many as the engine pool's parallelism) serve ready tenants round-robin,
/// so tenants mine concurrently while each tenant's counters see its
/// requests one after another, in queue order. Consecutive MINEs within a
/// worker's turn run as one engine batch, each under its own deadline.
/// Responses
/// are delivered strictly in per-connection request order; cheap commands
/// (HELLO, EXPLAIN, STATS, QUIT) run inline on the event loop when the
/// connection has nothing in flight, and are queued on its tenant's strand
/// behind its pending mines otherwise.
///
/// Shutdown() drains gracefully: listeners close, new MINEs answer
/// ERR SHUTDOWN, admitted work finishes (bounded by drain_timeout_ms, then
/// the cooperative kill-switch unwinds in-flight plans as DEADLINE), the
/// workers empty every strand and join, the outboxes flush, and every
/// thread joins. Idempotent; the destructor calls it.
class Server {
 public:
  /// The engine (and its dataset) must outlive the server.
  Server(const Engine& engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, spawns the event loops and the dispatcher workers. Fails with
  /// kIoError when the address cannot be bound.
  Status Start();

  /// The bound TCP port (after a successful Start).
  uint16_t port() const { return port_; }

  /// Blocks until a Shutdown (from any thread) has fully completed.
  void Wait();

  /// Graceful stop; safe to call from any thread, more than once.
  void Shutdown();

  /// Dispatcher workers Start spawned: the engine pool's parallelism.
  size_t dispatch_workers() const { return workers_.size(); }

  Service& service() { return service_; }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Conn;
  struct IoLoop;
  struct Pending;
  struct Strand;

  Status StartListener(IoLoop* loop, uint16_t port);
  void IoLoopMain(IoLoop* loop);
  void WorkerMain(size_t index);
  /// Executes one worker turn of a tenant's queued items, in order.
  void RunTurn(const std::vector<Pending>& batch);

  void AcceptReady(IoLoop* loop);
  void ReadReady(IoLoop* loop, const std::shared_ptr<Conn>& conn);
  void WriteReady(const std::shared_ptr<Conn>& conn);
  void CloseConn(IoLoop* loop, const std::shared_ptr<Conn>& conn);

  void HandleLine(IoLoop* loop, const std::shared_ptr<Conn>& conn,
                  const std::string& line);
  /// Routes a prebuilt response in per-connection order: inline when
  /// nothing is pending, queued behind the pending work otherwise.
  void RespondOrdered(const std::shared_ptr<Conn>& conn, std::string response,
                      bool quit_after = false);
  void EnqueuePending(Pending item);
  /// Appends one rendered response to the connection's outbox (worker
  /// side) and flushes what the socket accepts.
  void Deliver(const std::shared_ptr<Conn>& conn, const std::string& response,
               bool quit_after = false);

  const Engine* engine_;
  ServerOptions options_;
  Service service_;
  ServerStats stats_;

  uint16_t port_ = 0;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> workers_;

  /// Drain kill-switch: parented by every request token; fired when the
  /// drain timeout lapses so stuck plans unwind cooperatively.
  CancelToken kill_;

  std::atomic<bool> draining_{false};  // listeners close, MINE -> SHUTDOWN
  std::atomic<bool> io_stop_{false};   // event loops flush and exit

  // Guarded by queue_mutex_. A strand is on ready_ while it has queued
  // items and no worker runs it; strands live as long as the server. An
  // idle worker waits on its own condition variable, its index on idle_.
  std::mutex queue_mutex_;
  std::vector<std::condition_variable> worker_cvs_;
  std::vector<size_t> idle_;
  std::unordered_map<const Tenant*, std::unique_ptr<Strand>> strands_;
  std::deque<Strand*> ready_;
  bool queue_closing_ = false;

  /// Budget for the final outbox-flush pass of the event loops; set by
  /// Shutdown before io_stop_ (release/acquire ordered).
  CancelToken::Clock::time_point drain_deadline_{};

  std::mutex lifecycle_mutex_;
  std::condition_variable stopped_cv_;
  bool started_ = false;
  bool stop_initiated_ = false;
  bool stopped_ = false;
};

}  // namespace colarm

#endif  // COLARM_SERVER_SERVER_H_
