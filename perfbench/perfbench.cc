// colarm_perfbench — one run of the end-to-end benchmark of colarm_server.
//
// A run generates the workload's relation (a fixed synthetic analog written
// as CSV) and its seeded request lists, then:
//
//   1. replays the lists in-process through the layers' public functions
//      (ParseCommandLine, ParseQuery, Engine::Execute under a per-tenant
//      SessionContext, RenderMineResult + OkResponse) to get the expected
//      response bytes — and, with --trace 1, twice more, once with a span
//      around every call, for the per-layer numbers;
//   2. in each of kPasses passes starts the shipped colarm_server (timing
//      set-up from spawn to its LISTENING line), drives the pass's stretch
//      of the lists through it from closed-loop clients in this one
//      process (each client waits for a reply before sending the next
//      request), checks every response byte-for-byte against the replay
//      and each tenant's STATS against the replay's counters, and drains
//      it;
//   3. starts it without load until kSetups set-up samples are taken;
//   4. prints one JSON object with every metric on stdout.
//
// Usage:
//   colarm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --work DIR
//
// perfbench/run.py builds this binary and the server, calls it, and turns
// its output into the benchmark's result line.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "core/query_parser.h"
#include "cost/calibration.h"
#include "data/csv_reader.h"
#include "data/synthetic.h"
#include "server/protocol.h"
#include "server/service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace colarm {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool pumsb;          // PUMSB analog (else chess analog)
  uint32_t tiles;      // copies of the analog side by side (RelationConfig)
  double primary;      // offline index primary support (the paper's)
  int clients;         // closed-loop clients, one tenant each
  double qps_nominal;  // requests per second of --seconds (sizes the list)
};

constexpr double kMinconf = 0.85;
// Fresh servers a run drives its lists through, each its own stretch of
// them; the shared host's speed drifts by tens of percent within seconds,
// and pooling the passes averages that over the run and over several
// process layouts.
constexpr int kPasses = 3;
// Server starts per run (the passes plus starts without load); set-up is
// their median.
constexpr int kSetups = 7;

// qps_nominal turns --seconds into a fixed request count: the list is
// replayed whole, never cut off by a clock, so every run of one seed does
// the same work. cold-mine's rate is what the server sustains on a 4-core
// x86 host. explore sustains about 110/s there; 65/s keeps a 15 s run
// under 1000 timed requests, so its tail is p90, which holds steadier than
// a p99 decided by the slowest 13 requests.
constexpr Workload kWorkloads[] = {
    {"explore", false, 8, 0.60, 1, 65.0},
    {"cold-mine", true, 1, 0.80, 2, 50.0},
};

/// The workload's relation: `tiles` copies of the analog's region values
/// side by side, each copy with the analog's localized patterns. A box of
/// region values then holds the same kind and number of records as on the
/// original analog, while the relation is large enough that set-up takes
/// about a second (the original chess analog starts in 0.2 s, where
/// process start-up jitter decides the figure).
SyntheticConfig RelationConfig(const Workload& w) {
  SyntheticConfig config =
      w.pumsb ? PumsbLikeConfig(w.tiles) : ChessLikeConfig(w.tiles);
  const std::vector<LocalPattern> tile = std::move(config.local_patterns);
  config.local_patterns.clear();
  for (uint32_t t = 0; t < w.tiles; ++t) {
    for (LocalPattern pattern : tile) {
      pattern.region_lo += t * config.region_domain;
      pattern.region_hi += t * config.region_domain;
      config.local_patterns.push_back(std::move(pattern));
    }
  }
  config.region_domain *= w.tiles;
  return config;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// SplitMix64: small, fast, and the same sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

 private:
  uint64_t state_;
};

struct Box {
  uint32_t lo = 0;
  uint32_t hi = 0;        // inclusive region value ids
  std::string lean_attr;  // empty = region only; else its majority value v0
  double minsupp = 0.0;
};

std::string MineLine(const Box& box) {
  std::string line = "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE region = {";
  for (uint32_t v = box.lo; v <= box.hi; ++v) {
    if (v != box.lo) line += ", ";
    line += StrFormat("r%u", v);
  }
  line += "}";
  if (!box.lean_attr.empty()) {
    line += StrFormat(" AND %s = {v0}", box.lean_attr.c_str());
  }
  line += StrFormat(" HAVING minsupport = %g AND minconfidence = %g;",
                    box.minsupp, kMinconf);
  return line;
}

/// Quasi-random points in the unit square (the R2 sequence, Roberts 2018)
/// from a seeded start: any stretch of it covers the square evenly, so the
/// lists of different seeds hold the same mix of boxes and differ only in
/// placement and order.
class Lattice {
 public:
  explicit Lattice(Rng& rng) : x_(rng.Unit()), y_(rng.Unit()) {}
  std::pair<double, double> Next() {
    x_ += 0.7548776662466927;  // 1/g and 1/g^2, g the plastic number
    y_ += 0.5698402909980532;
    x_ -= std::floor(x_);
    y_ -= std::floor(y_);
    return {x_, y_};
  }

 private:
  double x_;
  double y_;
};

/// The region as RelationConfig lays it out: `tiles` runs of `period`
/// values. A box is placed inside one run, the runs taken in turn, so a
/// list samples each copy of the analog as a list over the original would.
struct Tiling {
  uint32_t period;
  uint32_t tiles;
  uint32_t Place(size_t index, double x, uint32_t width) const {
    return static_cast<uint32_t>(index % tiles) * period +
           static_cast<uint32_t>(x * (period - width + 1));
  }
};

/// Drill-down sessions (Goethals & Van den Bussche): a region box plus the
/// majority value of one leaning attribute, three narrowings inside it,
/// then a minsupp sweep on the narrowest box. The first box comes from the
/// lattice, the leaning attribute and the narrowing ratios cycle over fixed
/// sets, and each narrowing stays near its parent's centre.
std::vector<Box> ExploreList(Rng& rng, size_t n, const Tiling& tiling,
                             const std::vector<std::string>& leans) {
  Lattice lattice(rng);
  std::vector<Box> out;
  for (uint32_t session = 0; out.size() < n; ++session) {
    const auto [x, y] = lattice.Next();
    Box box;
    box.lean_attr = leans[session % leans.size()];
    box.minsupp = 0.85;
    uint32_t width = 30 + static_cast<uint32_t>(y * 21);
    box.lo = tiling.Place(session, x, width);
    box.hi = box.lo + width - 1;
    out.push_back(box);
    for (uint32_t k = 0; k < 3; ++k) {
      const uint32_t narrower = std::max<uint32_t>(
          3, width * (70 + (session * 7 + k * 3) % 21) / 100);
      const uint32_t slack = width - narrower;
      box.lo += std::min(slack, slack / 2 + rng.Below(3)) -
                std::min(slack / 2, 1u);
      box.hi = box.lo + narrower - 1;
      width = narrower;
      out.push_back(box);
    }
    for (double minsupp : {0.88, 0.90}) {
      box.minsupp = minsupp;
      out.push_back(box);
    }
  }
  out.resize(n);
  return out;
}

/// Distinct region boxes of [min_width, max_width] values placed by the
/// lattice, with thresholds cycling through `minsupps`.
std::vector<Box> LatticeBoxes(Rng& rng, size_t n, const Tiling& tiling,
                              uint32_t min_width, uint32_t max_width,
                              const std::vector<double>& minsupps) {
  Lattice lattice(rng);
  const uint32_t widths = max_width - min_width + 1;
  std::vector<Box> out;
  std::set<std::tuple<uint32_t, uint32_t, double>> seen;
  for (size_t i = 0; out.size() < n; ++i) {
    const auto [x, y] = lattice.Next();
    Box box;
    const uint32_t width = min_width + static_cast<uint32_t>(y * widths);
    box.lo = tiling.Place(i, x, width);
    box.hi = box.lo + width - 1;
    box.minsupp = minsupps[out.size() % minsupps.size()];
    if (seen.insert({box.lo, box.hi, box.minsupp}).second) out.push_back(box);
  }
  return out;
}

using Lists = std::vector<std::vector<std::string>>;  // one list per client

/// Per-client request lines.
Lists MakeRequests(const Workload& w, const Schema& schema, uint64_t seed,
                   size_t per_client) {
  std::vector<std::string> leans;
  for (const Attribute& attr : schema.attributes()) {
    if (attr.name.rfind("lean", 0) == 0) leans.push_back(attr.name);
  }
  const uint32_t domain = schema.attribute(0).domain_size();
  const Tiling tiling{domain / w.tiles, w.tiles};
  Lists lists(w.clients);
  for (int c = 0; c < w.clients; ++c) {
    Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(c) + 1);
    std::vector<Box> boxes;
    if (std::string(w.name) == "explore") {
      boxes = ExploreList(rng, per_client, tiling, leans);
    } else {
      boxes = LatticeBoxes(rng, per_client, tiling, 10, 20, {0.90, 0.91});
    }
    for (const Box& box : boxes) lists[c].push_back(MineLine(box));
  }
  return lists;
}

// ---------------------------------------------------------------------------
// Relation

/// Writes `data` as CSV so that ReadCsvFile serves the same relation: the
/// reader numbers categorical values by first appearance and RANGE needs
/// the region ids contiguous in generated order, so the first record of
/// each region value leads, in value order, and the rest follow in
/// generated order. Rules are sets of (attribute = value) labels, so the
/// row order changes no answer.
Status WriteCsv(const Dataset& data, const std::string& path) {
  const Schema& schema = data.schema();
  std::vector<Tid> order;
  std::vector<bool> placed(data.num_records(), false);
  for (ValueId v = 0; v < schema.attribute(0).domain_size(); ++v) {
    for (Tid t = 0; t < data.num_records(); ++t) {
      if (data.Value(t, 0) == v) {
        order.push_back(t);
        placed[t] = true;
        break;
      }
    }
  }
  for (Tid t = 0; t < data.num_records(); ++t) {
    if (!placed[t]) order.push_back(t);
  }
  std::string out;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (a > 0) out += ',';
    out += schema.attribute(a).name;
  }
  out += '\n';
  for (Tid t : order) {
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) out += ',';
      out += schema.attribute(a).values[data.Value(t, a)];
    }
    out += '\n';
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file) return Status::IoError("cannot write " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// In-process replay

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 32;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ULL;
  }
  return h;
}

/// One replayed request. The timing fields other than wall_ms are filled by
/// the traced pass only.
struct Replayed {
  uint64_t hash = 0;
  size_t bytes = 0;
  bool ok = false;
  size_t rules = 0;
  PlanKind plan = PlanKind::kSEV;
  double wall_ms = 0.0;  // parse + execute + render
  double parse_us = 0.0;
  double execute_ms = 0.0;
  double render_ms = 0.0;
  PlanStats stats;
  CacheTelemetry cache;
};

/// A traced call: its request, the enclosing span (-1 = the request
/// itself), and its interval relative to the pass start.
struct Span {
  uint32_t request;
  int32_t parent;
  const char* name;
  double start_us;
  double end_us;
};

struct ReplayPass {
  std::vector<std::vector<Replayed>> tenants;
  std::vector<std::string> stats_payloads;  // expected STATS, inflight cut
  std::vector<Span> spans;
};

/// STATS without its last line: the admission counts there race the
/// dispatcher's release of the previous request, everything else is a
/// pure function of the tenant's request sequence.
std::string StatsWithoutInflight(std::string_view response) {
  std::string text(response);
  const size_t last = text.rfind("inflight ");
  if (last != std::string::npos) text.erase(last);
  const size_t nl = text.find('\n');  // drop the "OK <n>" header too
  return nl == std::string::npos ? text : text.substr(nl + 1);
}

ReplayPass Replay(const Engine& engine, const Lists& lists, bool traced) {
  ReplayPass pass;
  const Schema& schema = engine.index().dataset().schema();
  const QueryCacheOptions cache_options = ServiceOptions{}.tenant_cache;
  if (traced) {
    size_t total = 0;
    for (const auto& list : lists) total += list.size();
    pass.spans.reserve(total * 5);
  }
  const Clock::time_point pass_start = Clock::now();
  auto us = [&](Clock::time_point t) { return MsBetween(pass_start, t) * 1e3; };
  uint32_t request_id = 0;
  for (size_t c = 0; c < lists.size(); ++c) {
    QueryCache cache(engine.index(), cache_options);
    TenantStats tenant;
    std::vector<Replayed>& out = pass.tenants.emplace_back();
    out.reserve(lists[c].size());
    for (const std::string& line : lists[c]) {
      Replayed r;
      std::string response;
      const Clock::time_point t0 = Clock::now();
      Result<Command> cmd = ParseCommandLine(line);
      Result<LocalizedQuery> query =
          cmd.ok() ? ParseQuery(schema, cmd->arg)
                   : Result<LocalizedQuery>(cmd.status());
      const Clock::time_point t1 = traced ? Clock::now() : t0;
      Result<QueryResult> result = Status::FailedPrecondition("unparsed");
      if (query.ok()) {
        SessionContext session;
        session.cache = &cache;
        result = engine.Execute(*query, session);
      }
      const Clock::time_point t2 = traced ? Clock::now() : t0;
      if (!query.ok()) {
        response = ErrResponse("PARSE", query.status().message());
      } else if (!result.ok()) {
        response = ErrResponse(StatusErrCode(result.status()),
                               result.status().message());
      } else {
        response = OkResponse(RenderMineResult(schema, *result));
      }
      const Clock::time_point t3 = Clock::now();
      r.wall_ms = MsBetween(t0, t3);
      if (traced) {
        const int32_t root = static_cast<int32_t>(pass.spans.size());
        pass.spans.push_back({request_id, -1, "request", us(t0), us(t3)});
        pass.spans.push_back({request_id, root, "protocol.parse", us(t0), us(t1)});
        pass.spans.push_back({request_id, root, "engine.execute", us(t1), us(t2)});
        pass.spans.push_back({request_id, root, "protocol.render", us(t2), us(t3)});
        r.parse_us = MsBetween(t0, t1) * 1e3;
        r.execute_ms = MsBetween(t1, t2);
        r.render_ms = MsBetween(t2, t3);
      }
      r.hash = HashBytes(response);
      r.bytes = response.size();
      if (query.ok()) tenant.mines++;
      if (result.ok()) {
        r.ok = true;
        r.rules = result->rules.rules.size();
        r.plan = result->plan_used;
        r.stats = result->stats;
        r.cache = result->cache;
        tenant.rules += r.rules;
      } else if (query.ok()) {
        tenant.mine_errors++;
      }
      out.push_back(std::move(r));
      ++request_id;
    }
    const CacheTelemetry telemetry = cache.telemetry();
    pass.stats_payloads.push_back(StatsWithoutInflight(OkResponse(
        RenderStatsPayload(StrFormat("tenant%zu", c), tenant, &telemetry, 0, 0))));
  }
  return pass;
}

/// Replay of every pass's lists, each on fresh caches as a fresh server
/// has, joined: one tenant per (pass, client), pass-major.
ReplayPass ReplayAll(const Engine& engine, const std::vector<Lists>& lists,
                     bool traced) {
  ReplayPass all;
  uint32_t requests = 0;
  for (const Lists& pass_lists : lists) {
    ReplayPass pass = Replay(engine, pass_lists, traced);
    for (Span span : pass.spans) {
      span.request += requests;
      all.spans.push_back(span);
    }
    for (auto& tenant : pass.tenants) {
      requests += static_cast<uint32_t>(tenant.size());
      all.tenants.push_back(std::move(tenant));
    }
    for (auto& payload : pass.stats_payloads) {
      all.stats_payloads.push_back(std::move(payload));
    }
  }
  return all;
}

// ---------------------------------------------------------------------------
// Server process

/// A colarm_server child. The destructor drains it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it, so no path leaves it running; the
/// child also dies with this process (PR_SET_PDEATHSIG).
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Spawns the server and waits for its LISTENING line; setup_s() is the
  /// time between the two.
  Status Start(const std::string& path, const std::vector<std::string>& args,
               const std::string& log_path) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) return Status::IoError("pipe");
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    std::vector<std::string> argv_storage = {path};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_storage) argv.push_back(a.data());
    argv.push_back(nullptr);

    const Clock::time_point start = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out[0]);
      ::close(out[1]);
      if (log >= 0) ::close(log);
      return Status::IoError("fork");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (log >= 0) ::close(log);
    stdout_fd_ = out[0];

    std::string text;
    const Clock::time_point give_up = start + std::chrono::seconds(60);
    while (text.find('\n') == std::string::npos) {
      const int wait_ms = static_cast<int>(
          std::max(0.0, MsBetween(Clock::now(), give_up)));
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (wait_ms == 0 || ::poll(&pfd, 1, wait_ms) <= 0) {
        return Status::IoError("server did not report LISTENING");
      }
      char buf[256];
      const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::IoError("server exited before LISTENING");
      text.append(buf, static_cast<size_t>(n));
    }
    setup_s_ = MsBetween(start, Clock::now()) / 1e3;
    unsigned port = 0;
    if (std::sscanf(text.c_str(), "LISTENING %u", &port) != 1 || port == 0 ||
        port > 65535) {
      return Status::IoError("unexpected server banner: " + text);
    }
    port_ = static_cast<uint16_t>(port);
    return Status::OK();
  }

  /// Peak resident set (VmHWM) in MB; 0 when unavailable.
  double PeakRssMb() const {
    std::ifstream status(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;  // kB
      }
    }
    return 0.0;
  }

  /// Drains and reaps the server; returns true when it exited 0 on its own.
  bool Stop() {
    bool clean = false;
    if (pid_ > 0) {
      // colarm_server drains on a SIGTERM its main thread takes with
      // sigwait. The engine's worker threads start before the server
      // blocks the signal, so a process-directed SIGTERM may land on one
      // of them and kill the process outright; send it to the main thread.
      ::syscall(SYS_tgkill, pid_, pid_, SIGTERM);
      int status = 0;
      const Clock::time_point give_up = Clock::now() + std::chrono::seconds(15);
      pid_t done = 0;
      while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
             Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (done == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      } else {
        clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
    return clean;
  }

  uint16_t port() const { return port_; }
  double setup_s() const { return setup_s_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Load generator

/// Blocking request-response connection; a reply is read in full into a
/// reused buffer.
class Connection {
 public:
  explicit Connection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// Sends `line` and reads one framed response ("OK <n>\n<n bytes>" or an
  /// "ERR ...\n" line) into *response. False on a broken connection.
  bool Request(const std::string& line, std::string* response) {
    response->clear();
    std::string bytes = line;
    bytes.push_back('\n');
    for (size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    size_t nl = std::string::npos;
    while ((nl = response->find('\n')) == std::string::npos) {
      if (!Fill(response)) return false;
    }
    size_t want = nl + 1;
    if (response->rfind("OK ", 0) == 0) {
      want += std::strtoull(response->c_str() + 3, nullptr, 10);
    }
    while (response->size() < want) {
      if (!Fill(response)) return false;
    }
    return response->size() == want;  // closed loop: nothing may follow
  }

 private:
  bool Fill(std::string* response) {
    const size_t old = response->size();
    response->resize(old + (size_t{1} << 16));
    const ssize_t n = ::recv(fd_, response->data() + old, size_t{1} << 16, 0);
    response->resize(old + static_cast<size_t>(std::max<ssize_t>(n, 0)));
    return n > 0;
  }

  int fd_ = -1;
};

struct ClientResult {
  std::vector<double> latency_ms;  // timed, successful requests
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t mismatches = 0;  // OK replies that differ from the replay
  bool stats_match = false;
  Clock::time_point timed_start{};
  Clock::time_point timed_end{};
  std::string first_problem;
};

void RunClient(uint16_t port, int index, const std::vector<std::string>& lines,
               const std::vector<Replayed>& expected,
               const std::string& expected_stats, size_t warmup,
               std::barrier<>& sync, ClientResult* r) {
  Connection conn(port);
  std::string response;
  const bool hello =
      conn.ok() && conn.Request(StrFormat("HELLO tenant%d", index), &response) &&
      response.rfind("OK ", 0) == 0;
  if (!hello) r->first_problem = "HELLO failed";
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i == warmup) {
      sync.arrive_and_wait();
      r->timed_start = Clock::now();
    }
    r->attempted++;
    if (!hello) continue;
    const Clock::time_point t0 = Clock::now();
    const bool delivered = conn.Request(lines[i], &response);
    const Clock::time_point t1 = Clock::now();
    if (!delivered) {
      if (r->first_problem.empty()) r->first_problem = "connection lost";
      continue;
    }
    if (response.rfind("ERR BUSY", 0) == 0) {
      r->busy++;
    } else if (response.rfind("OK ", 0) != 0) {
      if (r->first_problem.empty()) r->first_problem = response;
    } else if (HashBytes(response) != expected[i].hash ||
               response.size() != expected[i].bytes) {
      r->mismatches++;
      if (r->first_problem.empty()) {
        r->first_problem = StrFormat("request %zu differs from the replay", i);
      }
    } else {
      r->ok++;
      if (i >= warmup) r->latency_ms.push_back(MsBetween(t0, t1));
    }
  }
  if (warmup >= lines.size()) sync.arrive_and_wait();
  r->timed_end = Clock::now();
  // Every client is done before any asks for STATS, so the counters are
  // final.
  sync.arrive_and_wait();
  if (hello && conn.Request("STATS", &response)) {
    r->stats_match = StatsWithoutInflight(response) == expected_stats;
    if (!r->stats_match && r->first_problem.empty()) {
      r->first_problem = "STATS differs from the replay: " + response;
    }
  }
  if (hello) conn.Request("QUIT", &response);
}

// ---------------------------------------------------------------------------
// Statistics and output

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The highest percentile with at least 10 samples beyond it.
double TailPercentile(size_t samples) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint64(value, &args->seed)) return false;
    } else if (flag == "--seconds") {
      // At most 60 s, so the distinct boxes of one list never run out.
      if (!ParseDouble(value, &args->seconds) || !(args->seconds > 0) ||
          args->seconds > 60) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->server.empty() &&
         !args->work.empty();
}

/// Milliseconds for a fixed piece of work shaped like the server's own:
/// dependent arithmetic, a pointer chase through 8 MB, and sorting and
/// formatting 20k short integer vectors. It uses none of the program's
/// code, so it tells how fast the shared host ran at that moment.
double HostProbeMs() {
  static std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> next(size_t{1} << 21);
    Rng rng(17);
    std::vector<uint32_t> order(next.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Below(static_cast<uint32_t>(i + 1))]);
    }
    for (size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  const Clock::time_point t0 = Clock::now();
  volatile uint64_t x = 1;
  for (uint32_t i = 0; i < 4000000; ++i) x = x * 6364136223846793005ULL + 1;
  uint32_t at = 0;
  for (uint32_t i = 0; i < 400000; ++i) at = ring[at];
  Rng rng(at);
  std::string text;
  std::vector<uint32_t> items;
  for (int rule = 0; rule < 20000; ++rule) {
    items.resize(4 + rng.Below(8));
    for (uint32_t& item : items) item = rng.Below(1000);
    std::sort(items.begin(), items.end());
    for (uint32_t item : items) text += StrFormat("a%u=v%u ", item / 10, item % 10);
    text += '\n';
  }
  x = x + HashBytes(text);
  return MsBetween(t0, Clock::now());
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "colarm_perfbench: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: colarm_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --server PATH --work DIR");
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Fail("unknown workload " + args.workload);
  ::signal(SIGPIPE, SIG_IGN);
  std::vector<double> host_probe_ms = {HostProbeMs()};

  // The relation: a fixed analog, served from CSV by both sides.
  Result<Dataset> generated = GenerateSynthetic(RelationConfig(*workload));
  if (!generated.ok()) return Fail(generated.status().ToString());
  const std::string csv_path = args.work + "/relation.csv";
  if (Status s = WriteCsv(*generated, csv_path); !s.ok()) {
    return Fail(s.ToString());
  }
  Result<Dataset> loaded = ReadCsvFile(csv_path, CsvOptions{});
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Dataset& data = *loaded;
  for (ValueId v = 0; v < data.schema().attribute(0).domain_size(); ++v) {
    if (data.schema().attribute(0).values[v] != StrFormat("r%u", v)) {
      return Fail("CSV does not serve the generated region order");
    }
  }

  // --seconds of load at the nominal rate, split over the passes. Each
  // pass drives its own consecutive stretch of one seeded list per client,
  // so a run covers kPasses times as many distinct requests.
  const size_t per_client = std::max<size_t>(
      20, static_cast<size_t>(std::llround(
              args.seconds * workload->qps_nominal /
              (workload->clients * kPasses))));
  const size_t warmup = std::max<size_t>(3, per_client / 20);
  const size_t pass_len = warmup + per_client;
  const auto whole = MakeRequests(*workload, data.schema(), args.seed,
                                  kPasses * pass_len);
  std::vector<Lists> lists(kPasses, Lists(whole.size()));
  for (size_t c = 0; c < whole.size(); ++c) {
    std::ofstream file(StrFormat("%s/requests-%zu.txt", args.work.c_str(), c),
                       std::ios::trunc);
    for (size_t i = 0; i < whole[c].size(); ++i) {
      file << whole[c][i] << '\n';
      lists[i / pass_len][c].push_back(whole[c][i]);
    }
  }

  const std::vector<std::string> server_args = {
      "--csv",         csv_path,
      "--primary",     StrFormat("%g", workload->primary),
      "--threads",     "2",
      "--io-threads",  "1",
      "--no-calibrate"};
  std::string server_flags;
  for (size_t i = 2; i < server_args.size(); ++i) {
    if (!server_flags.empty()) server_flags += ' ';
    server_flags += server_args[i];
  }

  // 1. Replay for the expected answers (and, traced, the per-layer spans).
  EngineOptions engine_options;
  engine_options.index.primary_support = workload->primary;
  engine_options.calibrate = false;
  engine_options.num_threads = 2;
  std::vector<double> builds_s;
  auto timed_build = [&] {
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Engine>> built = Engine::Build(data, engine_options);
    builds_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    return built;
  };
  Result<std::unique_ptr<Engine>> engine = timed_build();
  if (!engine.ok()) return Fail(engine.status().ToString());

  const ReplayPass expected = ReplayAll(**engine, lists, /*traced=*/false);
  // Traced: a warm untraced replay, then the traced one; their difference
  // is the tracing overhead (the first replay also pays first-touch costs).
  ReplayPass untraced;
  ReplayPass traced;
  std::vector<double> explain_us;
  double calibrate_ms = 0.0;
  if (args.trace) {
    untraced = ReplayAll(**engine, lists, /*traced=*/false);
    traced = ReplayAll(**engine, lists, /*traced=*/true);
    for (const auto& list : whole) {
      for (const std::string& line : list) {
        Result<Command> cmd = ParseCommandLine(line);
        if (!cmd.ok()) return Fail(cmd.status().ToString());
        Result<LocalizedQuery> query = ParseQuery(data.schema(), cmd->arg);
        if (!query.ok()) return Fail(query.status().ToString());
        const Clock::time_point t0 = Clock::now();
        Result<OptimizerDecision> decision = (*engine)->Explain(*query);
        explain_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
        if (!decision.ok()) return Fail(decision.status().ToString());
      }
    }
    const Clock::time_point t0 = Clock::now();
    (void)Calibrate(data);
    calibrate_ms = MsBetween(t0, Clock::now());
    // mip.build_s is subtracted from set-up's median of kSetups, so it is a
    // median too.
    while (builds_s.size() < 3) (void)timed_build();
  }
  engine.value().reset();

  // Tenant t of a ReplayAll is client t % clients of pass t / clients.
  std::vector<std::string> problems;
  for (size_t t = 0; t < expected.tenants.size(); ++t) {
    for (size_t i = 0; i < expected.tenants[t].size(); ++i) {
      if (!expected.tenants[t][i].ok) {
        problems.push_back(StrFormat("replay request %zu of tenant %zu failed",
                                     i, t));
      }
      if (args.trace && (traced.tenants[t][i].hash != expected.tenants[t][i].hash ||
                         untraced.tenants[t][i].hash != expected.tenants[t][i].hash)) {
        problems.push_back(StrFormat(
            "request %zu of tenant %zu answered differently on a second replay",
            i, t));
      }
    }
  }

  // 2-3. Passes. Each starts a fresh server (one set-up sample), drives
  // its whole stretch through it from closed-loop clients, one tenant each,
  // and drains it; the timing metrics pool the passes. Extra starts
  // without load top the set-up samples up to kSetups.
  const std::string log_path = args.work + "/server.log";
  std::vector<double> setups, pass_rss, latencies;
  double timed_ms = 0.0;
  uint64_t attempted = 0, ok = 0, busy = 0, mismatches = 0;
  for (int pass = 0; pass < kSetups; ++pass) {
    host_probe_ms.push_back(HostProbeMs());
    ServerProcess server;
    if (Status s = server.Start(args.server, server_args, log_path); !s.ok()) {
      return Fail(s.ToString() + "; see " + log_path);
    }
    setups.push_back(server.setup_s());
    if (pass >= kPasses) {
      if (!server.Stop()) problems.push_back("server did not drain cleanly");
      continue;
    }
    std::vector<ClientResult> clients(workload->clients);
    const size_t first_tenant = static_cast<size_t>(pass * workload->clients);
    {
      std::barrier<> sync(workload->clients);
      std::vector<std::thread> threads;
      for (int c = 0; c < workload->clients; ++c) {
        threads.emplace_back(RunClient, server.port(), c,
                             std::cref(lists[pass][c]),
                             std::cref(expected.tenants[first_tenant + c]),
                             std::cref(expected.stats_payloads[first_tenant + c]),
                             warmup,
                             std::ref(sync), &clients[c]);
      }
      for (std::thread& t : threads) t.join();
    }
    pass_rss.push_back(server.PeakRssMb());
    if (!server.Stop()) problems.push_back("server did not drain cleanly");

    Clock::time_point timed_start = clients[0].timed_start;
    Clock::time_point timed_end = clients[0].timed_end;
    for (const ClientResult& r : clients) {
      latencies.insert(latencies.end(), r.latency_ms.begin(),
                       r.latency_ms.end());
      attempted += r.attempted;
      ok += r.ok;
      busy += r.busy;
      mismatches += r.mismatches;
      timed_start = std::min(timed_start, r.timed_start);
      timed_end = std::max(timed_end, r.timed_end);
      if (!r.first_problem.empty()) problems.push_back(r.first_problem);
      if (!r.stats_match && r.first_problem.empty()) {
        problems.push_back("STATS not answered");
      }
    }
    timed_ms += MsBetween(timed_start, timed_end);
  }
  host_probe_ms.push_back(HostProbeMs());
  const bool correct = mismatches == 0 && problems.empty();

  // Metrics. End-to-end first.
  std::map<std::string, double> m;
  const double tail_p = TailPercentile(latencies.size());
  const double p50 = Percentile(latencies, 50.0);
  m["setup_s"] = Percentile(setups, 50.0);
  m["p50_ms"] = p50;
  m["tail_ms"] = Percentile(latencies, tail_p);
  m["throughput_qps"] = static_cast<double>(latencies.size()) / (timed_ms / 1e3);
  m["success_frac"] = static_cast<double>(ok) / static_cast<double>(attempted);
  m["peak_rss_mb"] = Percentile(pass_rss, 50.0);

  // The determinism digest: every response byte (rules, plan, cache tier)
  // plus the counters that must repeat for one seed.
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](uint64_t x) {
    digest = (digest ^ x) * 0x100000001b3ULL;
    digest ^= digest >> 29;
  };
  std::map<std::string, double> plan_counts;
  for (PlanKind kind : kAllPlans) plan_counts[PlanKindName(kind)] = 0.0;
  CacheTelemetry hits;
  for (const auto& tenant : expected.tenants) {
    for (const Replayed& r : tenant) {
      mix(r.hash);
      mix(r.stats.record_checks);
      plan_counts[PlanKindName(r.plan)] += 1.0;
    }
  }
  for (const std::string& payload : expected.stats_payloads) {
    mix(HashBytes(payload));  // per-tenant cache hit/miss/eviction totals
  }

  if (args.trace) {
    // Per-layer numbers: means per replayed request, so they add up.
    std::vector<double> wall, parse_us, render_ms, execute_ms, untimed_ms,
        total_ms, select_ms, search_ms, eliminate_ms, verify_ms, mine_ms,
        response_kb, attributed;
    double record_checks = 0, subset = 0, rules = 0, local_cfis = 0, nodes = 0;
    for (const auto& tenant : traced.tenants) {
      for (const Replayed& r : tenant) {
        const PlanStats& s = r.stats;
        wall.push_back(r.wall_ms);
        parse_us.push_back(r.parse_us);
        execute_ms.push_back(r.execute_ms);
        render_ms.push_back(r.render_ms);
        untimed_ms.push_back(r.execute_ms - s.total_ms);
        total_ms.push_back(s.total_ms);
        select_ms.push_back(s.select_ms);
        search_ms.push_back(s.search_ms);
        eliminate_ms.push_back(s.eliminate_ms);
        verify_ms.push_back(s.verify_ms);
        mine_ms.push_back(s.mine_ms);
        response_kb.push_back(static_cast<double>(r.bytes) / 1024.0);
        // Self times of the named layers: parse, the engine outside the
        // plan timers, each plan stage, render.
        attributed.push_back((r.parse_us / 1e3 + (r.execute_ms - s.total_ms) +
                              s.select_ms + s.search_ms + s.eliminate_ms +
                              s.verify_ms + s.mine_ms + r.render_ms) /
                             r.wall_ms);
        record_checks += static_cast<double>(s.record_checks);
        subset += s.subset_size;
        rules += static_cast<double>(s.rules_emitted);
        local_cfis += static_cast<double>(s.local_cfis);
        nodes += static_cast<double>(s.rtree_nodes_visited);
        hits.hits_exact += r.cache.hits_exact;
        hits.hits_containment += r.cache.hits_containment;
        hits.hits_compose += r.cache.hits_compose;
        hits.hits_count_memo += r.cache.hits_count_memo;
        hits.misses += r.cache.misses;
        hits.evictions += r.cache.evictions;
        hits.admission_rejects += r.cache.admission_rejects;
      }
      hits.bytes += tenant.empty() ? 0 : tenant.back().cache.bytes;
    }
    const double n = static_cast<double>(wall.size());
    m["protocol.render_ms"] = Mean(render_ms);
    m["protocol.response_kb"] = Mean(response_kb);
    m["protocol.parse_us"] = Mean(parse_us);
    m["engine.execute_ms"] = Mean(execute_ms);
    m["plans.untimed_ms"] = Mean(untimed_ms);
    m["plans.total_ms"] = Mean(total_ms);
    m["plans.select_ms"] = Mean(select_ms);
    m["plans.search_ms"] = Mean(search_ms);
    m["plans.eliminate_ms"] = Mean(eliminate_ms);
    m["plans.verify_ms"] = Mean(verify_ms);
    m["plans.mine_ms"] = Mean(mine_ms);
    m["plans.record_checks"] = record_checks / n;
    m["plans.subset_size"] = subset / n;
    m["plans.rules_emitted"] = rules / n;
    m["plans.local_cfis"] = local_cfis / n;
    m["rtree.nodes_visited"] = nodes / n;
    m["optimizer.explain_us"] = Mean(explain_us);
    for (const auto& [plan, count] : plan_counts) {
      m["optimizer.plan." + plan] = count;
    }
    m["query_cache.hits_exact"] = static_cast<double>(hits.hits_exact);
    m["query_cache.hits_containment"] =
        static_cast<double>(hits.hits_containment);
    m["query_cache.hits_compose"] = static_cast<double>(hits.hits_compose);
    m["query_cache.hits_count_memo"] = static_cast<double>(hits.hits_count_memo);
    m["query_cache.misses"] = static_cast<double>(hits.misses);
    m["query_cache.evictions"] = static_cast<double>(hits.evictions);
    m["query_cache.admission_rejects"] =
        static_cast<double>(hits.admission_rejects);
    // Resident bytes at the end of a pass, summed over its tenants; the
    // passes run on separate servers, so this is their mean.
    m["query_cache.resident_mb"] =
        static_cast<double>(hits.bytes) / kPasses / 1048576.0;
    const double subset_hits = static_cast<double>(
        hits.hits_exact + hits.hits_containment + hits.hits_compose);
    m["query_cache.hit_frac"] =
        subset_hits / std::max(1.0, subset_hits + static_cast<double>(hits.misses));
    // The same requests as the end-to-end p50: the warm-up is left out.
    std::vector<double> untraced_wall;
    for (const auto& tenant : untraced.tenants) {
      for (size_t i = warmup; i < tenant.size(); ++i) {
        untraced_wall.push_back(tenant[i].wall_ms);
      }
    }
    m["replay.p50_ms"] = Percentile(untraced_wall, 50.0);
    m["server.overhead_ms"] = p50 - m["replay.p50_ms"];
    m["service.busy_frac"] =
        static_cast<double>(busy) / static_cast<double>(attempted);
    const double build_s = Percentile(builds_s, 50.0);
    m["mip.build_s"] = build_s;
    m["cost.calibrate_ms"] = calibrate_ms;
    m["server.start_ms"] = (m["setup_s"] - build_s) * 1e3;
    m["trace.attributed_frac"] = Percentile(attributed, 50.0);
    // Paired per request (both passes start from empty caches, so they do
    // the same work), median, so host drift between the passes cancels.
    std::vector<double> overhead_ms;
    for (size_t c = 0; c < traced.tenants.size(); ++c) {
      for (size_t i = 0; i < traced.tenants[c].size(); ++i) {
        overhead_ms.push_back(traced.tenants[c][i].wall_ms -
                              untraced.tenants[c][i].wall_ms);
      }
    }
    m["trace.overhead_ms"] = Percentile(overhead_ms, 50.0);

    // The spans, written out once the run is over.
    std::ofstream spans(args.work + "/spans.jsonl", std::ios::trunc);
    for (const Span& s : traced.spans) {
      spans << StrFormat(
          "{\"request\":%u,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,"
          "\"end_us\":%.3f}\n",
          s.request, s.parent, s.name, s.start_us, s.end_us);
    }
    uint32_t id = 0;
    for (const auto& tenant : traced.tenants) {
      for (const Replayed& r : tenant) {
        spans << StrFormat(
            "{\"request\":%u,\"bytes\":%zu,\"plan\":\"%s\",\"stats\":\"%s\","
            "\"cache\":{\"exact\":%llu,\"containment\":%llu,\"compose\":%llu,"
            "\"count_memo\":%llu,\"misses\":%llu,\"evictions\":%llu}}\n",
            id++, r.bytes, PlanKindName(r.plan),
            JsonEscape(r.stats.ToString()).c_str(),
            static_cast<unsigned long long>(r.cache.hits_exact),
            static_cast<unsigned long long>(r.cache.hits_containment),
            static_cast<unsigned long long>(r.cache.hits_compose),
            static_cast<unsigned long long>(r.cache.hits_count_memo),
            static_cast<unsigned long long>(r.cache.misses),
            static_cast<unsigned long long>(r.cache.evictions));
      }
    }
  }
  for (const auto& [plan, count] : plan_counts) mix(static_cast<uint64_t>(count));

  std::string probes;
  for (double ms : host_probe_ms) {
    probes += StrFormat("%s%.3f", probes.empty() ? "" : ",", ms);
  }
  std::string out = StrFormat(
      "{\"workload\":\"%s\",\"seed\":%llu,\"clients\":%d,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"busy\":%llu,\"mismatches\":%llu,"
      "\"timed_samples\":%zu,\"tail_percentile\":%g,\"warmup_per_client\":%zu,"
      "\"setup_samples\":%zu,\"records\":%u,\"digest\":\"%016llx\","
      "\"simd\":\"%s\",\"build_type\":\"%s\",\"server_flags\":\"%s\","
      "\"host_probe_ms\":%.3f,\"host_probes\":[%s],"
      "\"problems\":[",
      workload->name, static_cast<unsigned long long>(args.seed),
      workload->clients, correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(attempted - ok),
      static_cast<unsigned long long>(busy),
      static_cast<unsigned long long>(mismatches), latencies.size(), tail_p,
      warmup, setups.size(), data.num_records(),
      static_cast<unsigned long long>(digest),
      SimdLevelName(ActiveSimdLevel()), PERFBENCH_BUILD_TYPE,
      JsonEscape(server_flags).c_str(), Percentile(host_probe_ms, 50.0),
      probes.c_str());
  for (size_t i = 0; i < problems.size() && i < 10; ++i) {
    out += StrFormat("%s\"%s\"", i == 0 ? "" : ",", JsonEscape(problems[i]).c_str());
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out += StrFormat("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace colarm

int main(int argc, char** argv) { return colarm::perfbench::Main(argc, argv); }
