// fig_server_load — what the multi-tenant server costs over direct calls.
//
// One in-process Server over the chess analog; N ∈ {1, 8, 32} concurrent
// loopback clients, each HELLOing as its own tenant and running the
// drill-down workload (progressively narrower focal boxes) in strict
// request-response style. Each client count runs
// as many whole drill-down rounds as it takes to time at least 1000
// requests, so even the 1-client p99 has ten samples beyond it.
//
// Reported per client count: request latency p50/p99 and aggregate
// throughput. The server runs one dispatcher worker per engine thread, so
// throughput can grow with the client count up to the engine's
// parallelism. BUSY fast-fails are counted separately — admission control
// shedding load is the designed behaviour, not a latency sample. One JSON
// line per client count lands in the bench sink (BENCH_plans.json) with
// `clients`, `dispatch_workers` and `p99_ms` fields alongside the usual run
// attribution.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/query_parser.h"
#include "harness.h"
#include "server/server.h"

namespace colarm {
namespace bench {
namespace {

constexpr int kClientCounts[] = {1, 8, 32};
constexpr size_t kMinRequests = 1000;

std::vector<LocalizedQuery> DrillDown(const BenchDataset& dataset) {
  const Schema& schema = dataset.data->schema();
  const uint32_t domain = schema.attribute(0).domain_size();
  std::vector<LocalizedQuery> queries;
  for (double width_frac : {0.5, 0.4, 0.3, 0.2, 0.1}) {
    LocalizedQuery query;
    const auto width = std::max<uint32_t>(
        1, static_cast<uint32_t>(width_frac * domain + 0.5));
    query.ranges = {{0, 0, static_cast<ValueId>(width - 1)}};
    query.minsupp = dataset.minsupps.back();
    query.minconf = dataset.minconf;
    queries.push_back(query);
  }
  return queries;
}

/// Serializes a query back to the MINE wire form the parser accepts.
std::string MineLine(const Schema& schema, const LocalizedQuery& query) {
  const Attribute& attr = schema.attribute(query.ranges[0].attr);
  std::string values;
  for (ValueId v = query.ranges[0].lo; v <= query.ranges[0].hi; ++v) {
    if (!values.empty()) values += ", ";
    values += attr.values[v];
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                "} HAVING minsupport = %g AND minconfidence = %g;",
                query.minsupp, query.minconf);
  return "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE " + attr.name +
         " = {" + values + tail;
}

/// Blocking request-response client; returns false on connection failure.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// Sends one request line, reads one framed response; returns the
  /// response header line ("OK <n>" or "ERR <CODE> ...").
  std::string Request(const std::string& line) {
    std::string bytes = line + "\n";
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return "";
      off += static_cast<size_t>(n);
    }
    std::string header = ReadLine();
    if (header.rfind("OK ", 0) == 0) {
      size_t remaining = std::strtoull(header.c_str() + 3, nullptr, 10);
      char sink[4096];
      while (remaining > 0) {
        size_t want = std::min(remaining, sizeof(sink));
        ssize_t n = FillFrom(sink, want);
        if (n <= 0) return "";
        remaining -= static_cast<size_t>(n);
      }
    }
    return header;
  }

 private:
  std::string ReadLine() {
    std::string line;
    char c;
    for (;;) {
      if (pos_ >= len_) {
        ssize_t n = ::recv(fd_, buf_, sizeof(buf_), 0);
        if (n <= 0) return line;
        len_ = static_cast<size_t>(n);
        pos_ = 0;
      }
      c = buf_[pos_++];
      if (c == '\n') return line;
      line.push_back(c);
    }
  }
  /// Drains up to `want` payload bytes (buffered first, then the socket).
  ssize_t FillFrom(char* sink, size_t want) {
    if (pos_ < len_) {
      size_t take = std::min(want, len_ - pos_);
      std::memcpy(sink, buf_ + pos_, take);
      pos_ += take;
      return static_cast<ssize_t>(take);
    }
    return ::recv(fd_, sink, want, 0);
  }

  int fd_ = -1;
  char buf_[4096];
  size_t pos_ = 0;
  size_t len_ = 0;
};

struct LoadResult {
  std::vector<double> latencies_ms;  // OK responses only
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  double wall_ms = 0.0;
};

LoadResult RunClients(uint16_t port, int clients, int rounds,
                      const std::vector<std::string>& mine_lines) {
  std::vector<LoadResult> per_client(clients);
  std::vector<std::thread> threads;
  Timer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& r = per_client[c];
      Client client(port);
      if (!client.ok() ||
          client.Request("HELLO tenant" + std::to_string(c)).rfind("OK ", 0) !=
              0) {
        r.errors++;
        return;
      }
      for (int round = 0; round < rounds; ++round) {
        for (const std::string& line : mine_lines) {
          Timer timer;
          std::string header = client.Request(line);
          double ms = timer.ElapsedMillis();
          if (header.rfind("OK ", 0) == 0) {
            r.ok++;
            r.latencies_ms.push_back(ms);
          } else if (header.rfind("ERR BUSY", 0) == 0) {
            r.busy++;
          } else {
            r.errors++;
          }
        }
      }
      client.Request("QUIT");
    });
  }
  for (auto& t : threads) t.join();
  LoadResult total;
  total.wall_ms = wall.ElapsedMillis();
  for (const LoadResult& r : per_client) {
    total.ok += r.ok;
    total.busy += r.busy;
    total.errors += r.errors;
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
  }
  return total;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(p * (sorted->size() - 1) + 0.5);
  return (*sorted)[idx];
}

void AppendLoadJson(const BenchDataset& dataset, unsigned threads,
                    size_t workers, int clients, const LoadResult& r,
                    double p50, double p99) {
  std::string path = JsonSinkPath();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH json sink %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  std::fprintf(out,
               "{\"figure\":\"server_load\",\"dataset\":\"%s\","
               "\"records\":%u,\"scale\":%g,\"num_threads\":%u,"
               "\"dispatch_workers\":%zu,"
               "\"clients\":%d,\"requests\":%llu,"
               "\"busy\":%llu,\"errors\":%llu,\"p50_ms\":%.4f,"
               "\"p99_ms\":%.4f,\"throughput_rps\":%.1f}\n",
               dataset.name.c_str(), dataset.data->num_records(),
               ScaleFromEnv(), threads, workers, clients, static_cast<unsigned long long>(r.ok),
               static_cast<unsigned long long>(r.busy),
               static_cast<unsigned long long>(r.errors), p50, p99,
               r.ok / (r.wall_ms / 1000.0));
  std::fclose(out);
}

}  // namespace
}  // namespace bench
}  // namespace colarm

int main() {
  using namespace colarm;
  using namespace colarm::bench;

  BenchDataset dataset = MakeChess();
  std::unique_ptr<Engine> engine = BuildEngine(dataset);
  const unsigned threads =
      engine->pool() != nullptr
          ? static_cast<unsigned>(engine->pool()->parallelism())
          : 1u;

  std::vector<std::string> mine_lines;
  for (const LocalizedQuery& query : DrillDown(dataset)) {
    mine_lines.push_back(MineLine(dataset.data->schema(), query));
  }

  ServerOptions options;
  Server server(*engine, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::printf("server load — %s (%u records), drill-down rounds for >= %zu "
              "requests, %u engine threads, %zu dispatcher workers\n\n",
              dataset.name.c_str(), dataset.data->num_records(), kMinRequests,
              threads, server.dispatch_workers());
  std::printf("%8s %10s %10s %10s %8s %8s\n", "clients", "p50 ms", "p99 ms",
              "req/s", "ok", "busy");
  for (int clients : kClientCounts) {
    const size_t per_round = static_cast<size_t>(clients) * mine_lines.size();
    const int rounds =
        static_cast<int>((kMinRequests + per_round - 1) / per_round);
    LoadResult result =
        RunClients(server.port(), clients, rounds, mine_lines);
    double p50 = Percentile(&result.latencies_ms, 0.50);
    double p99 = Percentile(&result.latencies_ms, 0.99);
    double rps = result.ok / (result.wall_ms / 1000.0);
    std::printf("%8d %10.3f %10.3f %10.1f %8llu %8llu\n", clients, p50, p99,
                rps, static_cast<unsigned long long>(result.ok),
                static_cast<unsigned long long>(result.busy));
    if (result.errors > 0) {
      std::fprintf(stderr, "clients=%d: %llu unexpected errors\n", clients,
                   static_cast<unsigned long long>(result.errors));
      server.Shutdown();
      return 1;
    }
    AppendLoadJson(dataset, threads, server.dispatch_workers(), clients,
                   result, p50, p99);
  }

  server.Shutdown();
  return 0;
}
