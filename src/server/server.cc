#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/string_util.h"
#include "core/query_parser.h"

namespace colarm {

namespace {

std::string ErrnoMessage(const char* what) {
  return StrFormat("%s: %s", what, strerror(errno));
}

}  // namespace

/// Per-connection state. The framer, tenant binding, and quit bookkeeping
/// are touched only by the owning event-loop thread; everything under
/// `mutex` is shared with the dispatcher workers (response delivery).
struct Server::Conn {
  explicit Conn(size_t max_line_bytes) : framer(max_line_bytes) {}

  int fd = -1;
  IoLoop* loop = nullptr;

  // IO-thread only.
  LineFramer framer;
  std::shared_ptr<Tenant> tenant;
  bool saw_quit = false;
  bool quit_requested = false;  // arm close_after_flush at read-batch end

  std::mutex mutex;
  // Guarded by mutex.
  uint32_t pending = 0;  // queued strand items not yet answered
  std::string outbox;
  size_t out_pos = 0;
  bool want_write = false;        // EPOLLOUT armed
  bool read_closed = false;       // peer EOF seen; EPOLLIN deregistered
  bool close_after_flush = false;
  bool closed = false;

  // Caller holds mutex for both methods below.

  void SetEpollEventsLocked(int epfd) {
    epoll_event ev{};
    ev.events = (read_closed ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = fd;
    (void)epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev);
  }

  /// Flushes as much of the outbox as the socket accepts. On a write
  /// error the socket is shut down, which surfaces as EPOLLHUP on the
  /// owning loop and closes the connection there.
  void FlushLocked(int epfd) {
    if (closed) return;
    while (out_pos < outbox.size()) {
      const ssize_t n = ::send(fd, outbox.data() + out_pos,
                               outbox.size() - out_pos, MSG_NOSIGNAL);
      if (n >= 0) {
        out_pos += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!want_write) {
          want_write = true;
          SetEpollEventsLocked(epfd);
        }
        return;
      }
      // Peer gone (EPIPE, ECONNRESET, ...): surface EPOLLHUP to the loop.
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
    outbox.clear();
    out_pos = 0;
    if (want_write) {
      want_write = false;
      SetEpollEventsLocked(epfd);
    }
    if (close_after_flush && pending == 0) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
};

struct Server::IoLoop {
  Server* server = nullptr;
  unsigned index = 0;
  int epfd = -1;
  int listen_fd = -1;
  int wake_fd = -1;
  bool listener_open = false;
  std::thread thread;
  // IO-thread only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  ~IoLoop() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epfd >= 0) ::close(epfd);
  }

  void Wake() const {
    const uint64_t one = 1;
    if (wake_fd >= 0) {
      [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
    }
  }
};

struct Server::Pending {
  enum class Kind { kMine, kExplain, kStats, kPrebuilt };
  Kind kind = Kind::kPrebuilt;
  std::shared_ptr<Conn> conn;
  std::shared_ptr<Tenant> tenant;
  LocalizedQuery query;
  bool has_deadline = false;
  CancelToken::Clock::time_point deadline{};
  std::string prebuilt;
  bool quit_after = false;
};

/// One tenant's queue. `scheduled` is set while the strand is on the ready
/// list or a worker runs it, so no two workers ever run one tenant.
struct Server::Strand {
  std::deque<Pending> items;
  bool scheduled = false;
};

Server::Server(const Engine& engine, ServerOptions options)
    : engine_(&engine),
      options_(std::move(options)),
      service_(engine, options_.service) {}

Server::~Server() { Shutdown(); }

Status Server::StartListener(IoLoop* loop, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));
  loop->listen_fd = fd;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // One listener per event loop on the same port: the kernel shards
  // incoming connections across the acceptors.
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::IoError("bad host address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError(ErrnoMessage("bind"));
  }
  if (::listen(fd, 128) != 0) {
    return Status::IoError(ErrnoMessage("listen"));
  }
  loop->listener_open = true;
  return Status::OK();
}

Status Server::Start() {
  unsigned threads = options_.io_threads;
  if (threads == 0) {
    threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  uint16_t port = options_.port;
  for (unsigned i = 0; i < threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->server = this;
    loop->index = i;
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epfd < 0) return Status::IoError(ErrnoMessage("epoll_create1"));
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->wake_fd < 0) return Status::IoError(ErrnoMessage("eventfd"));
    COLARM_RETURN_IF_ERROR(StartListener(loop.get(), port));
    if (i == 0) {
      // An ephemeral bind resolves here; the remaining listeners share it.
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(loop->listen_fd,
                        reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        return Status::IoError(ErrnoMessage("getsockname"));
      }
      port_ = ntohs(bound.sin_port);
      port = port_;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->listen_fd;
    (void)::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->listen_fd, &ev);
    ev.data.fd = loop->wake_fd;
    (void)::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    loop->thread = std::thread(&Server::IoLoopMain, this, loop.get());
  }
  // As many dispatcher workers as the engine can run plans in parallel:
  // concurrent tenants share the engine's caller-participating pool.
  const unsigned workers =
      engine_->pool() != nullptr ? engine_->pool()->parallelism() : 1;
  worker_cvs_ = std::vector<std::condition_variable>(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back(&Server::WorkerMain, this, i);
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    started_ = true;
  }
  return Status::OK();
}

void Server::AcceptReady(IoLoop* loop) {
  for (;;) {
    const int fd = ::accept4(loop->listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener is closing
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(options_.max_line_bytes);
    conn->fd = fd;
    conn->loop = loop;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    (void)::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, fd, &ev);
    loop->conns.emplace(fd, std::move(conn));
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::CloseConn(IoLoop* loop, const std::shared_ptr<Conn>& conn) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    fd = conn->fd;
    (void)::epoll_ctl(loop->epfd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  loop->conns.erase(fd);
}

void Server::WriteReady(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  conn->FlushLocked(conn->loop->epfd);
}

void Server::ReadReady(IoLoop* loop, const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->framer.Append(buf, static_cast<size_t>(n));
      std::string line;
      for (;;) {
        const LineFramer::Event event = conn->framer.Next(&line);
        if (event == LineFramer::Event::kNeedMore) break;
        if (event == LineFramer::Event::kOversized) {
          stats_.oversized_lines.fetch_add(1, std::memory_order_relaxed);
          RespondOrdered(conn,
                         ErrResponse("TOOLONG",
                                     StrFormat("request line exceeds %zu bytes",
                                               options_.max_line_bytes)));
          continue;
        }
        HandleLine(loop, conn, line);
      }
      if (conn->quit_requested) {
        // QUIT (or an error after it) was answered inline during this read
        // batch; arm the close now that every pipelined line got its
        // response appended in order.
        conn->quit_requested = false;
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->close_after_flush = true;
        conn->FlushLocked(loop->epfd);
      }
      continue;
    }
    if (n == 0) {
      // Peer finished sending (nc-style half close). Keep the connection
      // until every pending response is delivered and flushed.
      bool close_now = false;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->read_closed = true;
        conn->close_after_flush = true;
        close_now =
            conn->pending == 0 && conn->out_pos >= conn->outbox.size();
        if (!close_now) conn->SetEpollEventsLocked(loop->epfd);
      }
      if (close_now) CloseConn(loop, conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(loop, conn);
    return;
  }
}

void Server::RespondOrdered(const std::shared_ptr<Conn>& conn,
                            std::string response, bool quit_after) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->pending == 0) {
      // Nothing queued ahead: answer inline on the event loop.
      if (!conn->closed) {
        conn->outbox += response;
        if (quit_after) conn->quit_requested = true;
        conn->FlushLocked(conn->loop->epfd);
      }
      return;
    }
    conn->pending++;
  }
  Pending item;
  item.kind = Pending::Kind::kPrebuilt;
  item.conn = conn;
  item.tenant = conn->tenant;  // queued behind this tenant's pending work
  item.prebuilt = std::move(response);
  item.quit_after = quit_after;
  EnqueuePending(std::move(item));
}

void Server::EnqueuePending(Pending item) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    std::unique_ptr<Strand>& strand = strands_[item.tenant.get()];
    if (strand == nullptr) strand = std::make_unique<Strand>();
    // Once the strands close, only a scheduled strand still gets drained.
    if (!queue_closing_ || strand->scheduled) {
      strand->items.push_back(std::move(item));
      if (!strand->scheduled) {
        strand->scheduled = true;
        ready_.push_back(strand.get());
        // Last in, first out: a lone tenant's requests keep landing on the
        // worker that just served it, whose caches they warmed.
        if (!idle_.empty()) {
          worker_cvs_[idle_.back()].notify_one();
          idle_.pop_back();
        }
      }
      return;
    }
  }
  // Shutdown race: the strands closed between the admission check and the
  // push. This tenant's strand is idle, so everything the connection queued
  // earlier is answered and a direct reply keeps its order; roll back the
  // admission slot.
  if (item.kind == Pending::Kind::kMine) service_.Release(item.tenant.get());
  Deliver(item.conn, ErrResponse("SHUTDOWN", "server is shutting down"),
          item.quit_after);
}

void Server::Deliver(const std::shared_ptr<Conn>& conn,
                     const std::string& response, bool quit_after) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  if (conn->pending > 0) conn->pending--;
  if (conn->closed) return;
  conn->outbox += response;
  if (quit_after) conn->close_after_flush = true;
  conn->FlushLocked(conn->loop->epfd);
}

void Server::HandleLine(IoLoop* loop, const std::shared_ptr<Conn>& conn,
                        const std::string& line) {
  if (StripWhitespace(line).empty()) return;  // blank keep-alive lines

  Result<Command> cmd = ParseCommandLine(line);
  if (!cmd.ok()) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    RespondOrdered(conn, ErrResponse("BADCMD", cmd.status().message()));
    return;
  }

  switch (cmd->verb) {
    case Verb::kHello: {
      if (conn->tenant != nullptr) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        RespondOrdered(conn, ErrResponse("REHELLO",
                                         "connection already identified as "
                                         "tenant " +
                                             conn->tenant->name()));
        return;
      }
      conn->tenant = service_.GetTenant(cmd->arg);
      RespondOrdered(conn, OkResponse("hello " + cmd->arg + "\n"));
      return;
    }

    case Verb::kQuit: {
      if (conn->saw_quit) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        RespondOrdered(conn, ErrResponse("BADCMD",
                                         "connection already closing"));
        return;
      }
      conn->saw_quit = true;
      RespondOrdered(conn, OkResponse("bye\n"), /*quit_after=*/true);
      return;
    }

    case Verb::kStats: {
      if (conn->tenant == nullptr) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        RespondOrdered(conn,
                       ErrResponse("NOHELLO", "say HELLO <tenant> first"));
        return;
      }
      bool inline_now;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        inline_now = conn->pending == 0;
        if (!inline_now) conn->pending++;
      }
      if (inline_now) {
        // pending can only grow on this thread, so the snapshot holds.
        RespondOrdered(conn, service_.RenderStats(conn->tenant.get()));
        return;
      }
      Pending item;
      item.kind = Pending::Kind::kStats;
      item.conn = conn;
      item.tenant = conn->tenant;
      EnqueuePending(std::move(item));
      return;
    }

    case Verb::kExplain:
    case Verb::kMine: {
      if (conn->tenant == nullptr) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        RespondOrdered(conn,
                       ErrResponse("NOHELLO", "say HELLO <tenant> first"));
        return;
      }
      Result<LocalizedQuery> query = ParseQuery(
          engine_->index().dataset().schema(), cmd->arg);
      if (!query.ok()) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        RespondOrdered(conn,
                       ErrResponse("PARSE", query.status().message()));
        return;
      }

      if (cmd->verb == Verb::kExplain) {
        bool inline_now;
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          inline_now = conn->pending == 0;
          if (!inline_now) conn->pending++;
        }
        if (inline_now) {
          RespondOrdered(conn,
                         service_.ExecuteExplain(conn->tenant.get(),
                                                 query.value()));
          return;
        }
        Pending item;
        item.kind = Pending::Kind::kExplain;
        item.conn = conn;
        item.tenant = conn->tenant;
        item.query = std::move(query.value());
        EnqueuePending(std::move(item));
        return;
      }

      // MINE: admission, then onto the tenant's strand.
      if (draining_.load(std::memory_order_acquire)) {
        RespondOrdered(conn,
                       ErrResponse("SHUTDOWN", "server is shutting down"));
        return;
      }
      if (!service_.Admit(conn->tenant.get())) {
        stats_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
        service_.NoteBusy(conn->tenant.get());
        RespondOrdered(conn, ErrResponse("BUSY",
                                         "admission limit reached; retry"));
        return;
      }
      stats_.requests_admitted.fetch_add(1, std::memory_order_relaxed);
      Pending item;
      item.kind = Pending::Kind::kMine;
      item.conn = conn;
      item.tenant = conn->tenant;
      item.query = std::move(query.value());
      if (options_.service.deadline_ms > 0) {
        item.has_deadline = true;
        item.deadline =
            CancelToken::Clock::now() +
            std::chrono::duration_cast<CancelToken::Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    options_.service.deadline_ms));
      }
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->pending++;
      }
      EnqueuePending(std::move(item));
      return;
    }
  }
  (void)loop;
}

void Server::WorkerMain(size_t index) {
  const size_t turn_max = std::max<uint32_t>(1, options_.batch_max);
  std::vector<Pending> turn;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    if (ready_.empty()) {
      // Closing with nothing ready: every strand is empty or being
      // finished by the worker that runs it.
      if (queue_closing_) return;
      idle_.push_back(index);
      worker_cvs_[index].wait(lock);
      // Woken by a push (which popped this worker), by Shutdown, or
      // spuriously; recheck either way.
      std::erase(idle_, index);
      continue;
    }
    Strand* strand = ready_.front();
    ready_.pop_front();
    while (!strand->items.empty() && turn.size() < turn_max) {
      turn.push_back(std::move(strand->items.front()));
      strand->items.pop_front();
    }
    lock.unlock();
    RunTurn(turn);
    turn.clear();
    lock.lock();
    if (strand->items.empty()) {
      strand->scheduled = false;
    } else {
      // Round-robin: the tenant waits behind every other ready tenant. No
      // wake: this worker loops straight back to the ready list.
      ready_.push_back(strand);
    }
  }
}

void Server::RunTurn(const std::vector<Pending>& batch) {
  size_t i = 0;
  while (i < batch.size()) {
    const Pending& item = batch[i];
    if (item.kind == Pending::Kind::kMine) {
      // A maximal run of mines executes as one batch: the tenant's
      // pipelined requests mine concurrently. Every item of a turn belongs
      // to one tenant, and the run keeps queue order, so per-connection
      // response order is preserved.
      size_t j = i;
      while (j < batch.size() && batch[j].kind == Pending::Kind::kMine) j++;
      std::vector<Service::MineRequest> group;
      group.reserve(j - i);
      for (size_t k = i; k < j; ++k) {
        Service::MineRequest request;
        request.query = batch[k].query;
        request.has_deadline = batch[k].has_deadline;
        request.deadline = batch[k].deadline;
        group.push_back(std::move(request));
      }
      const std::vector<std::string> responses =
          service_.ExecuteMineGroup(item.tenant.get(), group, &kill_);
      for (size_t k = i; k < j; ++k) {
        Deliver(batch[k].conn, responses[k - i]);
        service_.Release(batch[k].tenant.get());
      }
      i = j;
      continue;
    }
    switch (item.kind) {
      case Pending::Kind::kPrebuilt:
        Deliver(item.conn, item.prebuilt, item.quit_after);
        break;
      case Pending::Kind::kExplain:
        Deliver(item.conn,
                service_.ExecuteExplain(item.tenant.get(), item.query));
        break;
      case Pending::Kind::kStats:
        Deliver(item.conn, service_.RenderStats(item.tenant.get()));
        break;
      case Pending::Kind::kMine:
        break;  // handled above
    }
    i++;
  }
}

void Server::IoLoopMain(IoLoop* loop) {
  epoll_event events[64];
  for (;;) {
    const bool stopping = io_stop_.load(std::memory_order_acquire);
    const int timeout_ms = stopping ? 20 : -1;
    const int n = ::epoll_wait(loop->epfd, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->wake_fd) {
        uint64_t drain;
        while (::read(loop->wake_fd, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == loop->listen_fd) {
        AcceptReady(loop);
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) WriteReady(conn);
      if (events[i].events & EPOLLIN) ReadReady(loop, conn);
    }
    if (draining_.load(std::memory_order_acquire) && loop->listener_open) {
      (void)::epoll_ctl(loop->epfd, EPOLL_CTL_DEL, loop->listen_fd, nullptr);
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
      loop->listener_open = false;
    }
    if (stopping) {
      // The workers have already drained (Shutdown joins them before
      // setting io_stop_), so pending counts are final; keep polling only
      // until the outboxes flush or the drain budget lapses.
      bool idle = true;
      for (const auto& [cfd, conn] : loop->conns) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->pending > 0 || conn->out_pos < conn->outbox.size()) {
          idle = false;
          break;
        }
      }
      if (idle || CancelToken::Clock::now() >= drain_deadline_) {
        while (!loop->conns.empty()) {
          CloseConn(loop, loop->conns.begin()->second);
        }
        return;
      }
    }
  }
}

void Server::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mutex_);
    if (!started_) {
      stopped_ = true;
      stopped_cv_.notify_all();
      return;
    }
    if (stop_initiated_) {
      stopped_cv_.wait(lock, [this] { return stopped_; });
      return;
    }
    stop_initiated_ = true;
  }

  // Phase 1: stop accepting; new MINEs answer ERR SHUTDOWN.
  draining_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->Wake();

  // Phase 2: let admitted work finish, bounded by the drain budget; past
  // it, the kill-switch unwinds in-flight plans at their poll points.
  const auto drain_deadline =
      CancelToken::Clock::now() +
      std::chrono::duration_cast<CancelToken::Clock::duration>(
          std::chrono::duration<double, std::milli>(options_.drain_timeout_ms));
  while (service_.inflight() > 0 &&
         CancelToken::Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (service_.inflight() > 0) kill_.Cancel();

  // Phase 3: close the strands; the workers drain every tenant's queue
  // (the killed work included) and join.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_closing_ = true;
    for (std::condition_variable& cv : worker_cvs_) cv.notify_one();
  }
  for (std::thread& worker : workers_) worker.join();

  // Phase 4: flush outboxes and stop the event loops.
  drain_deadline_ =
      CancelToken::Clock::now() +
      std::chrono::duration_cast<CancelToken::Clock::duration>(
          std::chrono::duration<double, std::milli>(options_.drain_timeout_ms));
  io_stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->Wake();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }

  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  stopped_cv_.wait(lock, [this] { return stopped_; });
}

}  // namespace colarm
