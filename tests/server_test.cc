// In-process tests of the multi-tenant query server: byte-identity with a
// direct Engine replay, protocol negative paths over real sockets (torn
// frames, oversized lines, pre-HELLO commands, double QUIT, parse errors),
// admission control, per-request deadlines, concurrent clients, per-tenant
// strand ordering across dispatcher workers, and graceful shutdown.
#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/query_parser.h"
#include "data/salary_dataset.h"
#include "data/synthetic.h"
#include "server/protocol.h"

namespace colarm {
namespace {

constexpr double kPrimarySupport = 0.27;

const char* const kDrillDown[] = {
    "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
    "HAVING minsupport = 0.5 AND minconfidence = 0.6;",
    "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
    "AND Gender = {F} HAVING minsupport = 0.5 AND minconfidence = 0.6;",
    "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
    "HAVING minsupport = 0.5 AND minconfidence = 0.6;",
    "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Gender = {M} "
    "HAVING minsupport = 0.4 AND minconfidence = 0.5;",
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildEngine(MakeSalaryDataset(), kPrimarySupport, /*threads=*/0);
  }

  /// Serves `data` from an engine with `threads` workers (0 = hardware);
  /// the server runs as many dispatcher workers.
  void BuildEngine(Dataset data, double primary_support, unsigned threads) {
    engine_.reset();
    data_ = std::make_unique<Dataset>(std::move(data));
    EngineOptions options;
    options.index.primary_support = primary_support;
    options.calibrate = false;  // deterministic plan choice
    options.num_threads = threads;
    auto engine = Engine::Build(*data_, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine.value());
  }

  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<Server>(*engine_, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_NE(server->port(), 0);
    return server;
  }

  std::unique_ptr<Dataset> data_;
  std::unique_ptr<Engine> engine_;
};

/// Minimal blocking protocol client over one TCP connection.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~Client() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// One full framed response, raw bytes ("OK <n>\n<payload>" or
  /// "ERR ...\n"). Empty string on EOF.
  std::string ReadResponse() {
    std::string header = ReadLine();
    if (header.empty()) return header;
    if (header.rfind("OK ", 0) == 0) {
      size_t nbytes = std::stoul(header.substr(3));
      std::string payload = ReadExactly(nbytes);
      return header + "\n" + payload;
    }
    return header + "\n";
  }

  /// True when the peer has cleanly closed (no stray bytes first).
  bool AtEof() {
    if (pos_ < buf_.size()) return false;
    char c;
    ssize_t n = ::recv(fd_, &c, 1, 0);
    if (n == 1) {
      buf_ = std::string(1, c);
      pos_ = 0;
      return false;
    }
    return n == 0;
  }

 private:
  std::string ReadLine() {
    std::string line;
    for (;;) {
      while (pos_ < buf_.size()) {
        char c = buf_[pos_++];
        if (c == '\n') return line;
        line.push_back(c);
      }
      if (!Fill()) return line;  // EOF: return what we have (maybe empty)
    }
  }

  std::string ReadExactly(size_t n) {
    std::string out;
    while (out.size() < n) {
      while (pos_ < buf_.size() && out.size() < n) out.push_back(buf_[pos_++]);
      if (out.size() < n && !Fill()) break;
    }
    EXPECT_EQ(out.size(), n) << "short read";
    return out;
  }

  bool Fill() {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.assign(chunk, static_cast<size_t>(n));
    pos_ = 0;
    return true;
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// The rule listing of a MINE response: everything after the "OK <n>"
/// header and the plan/cache summary line, which batching may change.
std::string RulesOf(const std::string& response) {
  const size_t header_end = response.find('\n');
  return response.substr(response.find('\n', header_end + 1) + 1);
}

/// A STATS payload without the framing header and the trailing in-flight
/// line, which other tenants' progress moves.
std::string StatsBody(const std::string& payload) {
  return payload.substr(0, payload.find("inflight tenant "));
}

TEST_F(ServerTest, ResponsesByteIdenticalToDirectEngine) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO alice\n");
  EXPECT_EQ(client.ReadResponse(), OkResponse("hello alice\n"));

  // Direct replay: same cache options, same query sequence, rendered with
  // the same protocol functions. The server must not add or perturb a byte.
  QueryCache replay_cache(engine_->index(),
                          server->service().options().tenant_cache);
  for (const char* text : kDrillDown) {
    client.Send(std::string("MINE ") + text + "\n");
    std::string via_server = client.ReadResponse();

    auto query = ParseQuery(data_->schema(), text);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto direct =
        engine_->Execute(*query, SessionContext{&replay_cache, nullptr});
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    std::string expected =
        OkResponse(RenderMineResult(data_->schema(), direct.value()));
    EXPECT_EQ(via_server, expected) << text;
  }

  // EXPLAIN must match a direct Explain under the same session cache.
  client.Send(std::string("EXPLAIN ") + kDrillDown[0] + "\n");
  auto query = ParseQuery(data_->schema(), kDrillDown[0]);
  ASSERT_TRUE(query.ok());
  auto decision =
      engine_->Explain(*query, SessionContext{&replay_cache, nullptr});
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(client.ReadResponse(),
            OkResponse(RenderExplain(decision.value())));
}

TEST_F(ServerTest, StatsReflectTenantActivity) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO bob\n");
  client.ReadResponse();
  client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
  std::string mine = client.ReadResponse();
  ASSERT_EQ(mine.rfind("OK ", 0), 0u);
  client.Send("STATS\n");
  std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("tenant bob\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("mines 1 "), std::string::npos) << stats;
  // The worker decrements the in-flight counters after the MINE response is
  // queued, so a pipelined STATS can observe the drain still in progress.
  for (int i = 0;
       i < 100 &&
       stats.find("inflight tenant 0 global 0") == std::string::npos;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    client.Send("STATS\n");
    stats = client.ReadResponse();
  }
  EXPECT_NE(stats.find("inflight tenant 0 global 0"), std::string::npos)
      << stats;
}

TEST_F(ServerTest, StatsReportPerTenantCacheTelemetry) {
  ServerOptions options;
  auto server = StartServer(options);
  Client client(server->port());
  client.Send("HELLO carol\n");
  client.ReadResponse();
  // The same query twice: one cold miss, one exact hit.
  for (int i = 0; i < 2; ++i) {
    client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
    ASSERT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
  }
  client.Send("STATS\n");
  std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("cache exact 1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" misses 1 "), std::string::npos) << stats;
  // The admission counter and the always-zero counters of the retired
  // compose tier and memos are part of the wire format, so dashboards can
  // rely on the fields being present.
  EXPECT_NE(stats.find(" compose 0 memo 0 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" admitrej 0 "), std::string::npos) << stats;
  EXPECT_EQ(stats.find("cache disabled"), std::string::npos) << stats;
}

TEST_F(ServerTest, TenantCachePersistsAcrossRestartViaCacheDir) {
  const std::string cache_dir = ::testing::TempDir();
  const std::string cache_file = cache_dir + "/dave.ccache";
  std::remove(cache_file.c_str());

  ServerOptions options;
  options.service.cache_dir = cache_dir;

  std::string first_response;
  {
    auto server = StartServer(options);
    Client client(server->port());
    client.Send("HELLO dave\n");
    client.ReadResponse();
    client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
    first_response = client.ReadResponse();
    ASSERT_EQ(first_response.rfind("OK ", 0), 0u);
    client.Close();
    server->Shutdown();
    // The drain persisted the tenant's session cache (v4 file).
    EXPECT_EQ(server->service().PersistCaches(), 1u);
  }

  // A restarted server warm-starts the tenant from the cache dir: the
  // replayed query returns byte-identical rules — only the provenance
  // annotation may differ ("cache none" cold, "cache exact" warm) — and
  // is served as an exact hit with zero misses.
  auto server = StartServer(options);
  Client client(server->port());
  client.Send("HELLO dave\n");
  client.ReadResponse();
  client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
  const std::string warm_response = client.ReadResponse();
  auto rules_of = [](const std::string& response) {
    // Skip the framing header and the plan/provenance line.
    size_t pos = response.find('\n');
    pos = response.find('\n', pos + 1);
    return response.substr(pos + 1);
  };
  EXPECT_EQ(rules_of(warm_response), rules_of(first_response));
  EXPECT_NE(warm_response.find("cache exact\n"), std::string::npos)
      << warm_response;
  EXPECT_NE(first_response.find("cache none\n"), std::string::npos)
      << first_response;
  client.Send("STATS\n");
  std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("cache exact 1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" misses 0 "), std::string::npos) << stats;
  std::remove(cache_file.c_str());
}

TEST_F(ServerTest, CommandsBeforeHelloRejectedSessionUsable) {
  auto server = StartServer();
  Client client(server->port());
  for (const char* line : {"MINE x\n", "EXPLAIN x\n", "STATS\n"}) {
    client.Send(line);
    std::string resp = client.ReadResponse();
    EXPECT_EQ(resp.rfind("ERR NOHELLO", 0), 0u) << resp;
  }
  // The connection is not poisoned: HELLO then STATS still work.
  client.Send("HELLO late\nSTATS\n");
  EXPECT_EQ(client.ReadResponse(), OkResponse("hello late\n"));
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
}

TEST_F(ServerTest, SecondHelloRejected) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO a\nHELLO b\n");
  EXPECT_EQ(client.ReadResponse(), OkResponse("hello a\n"));
  EXPECT_EQ(client.ReadResponse().rfind("ERR REHELLO", 0), 0u);
  client.Send("STATS\n");  // still tenant a, still usable
  std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("tenant a\n"), std::string::npos);
}

TEST_F(ServerTest, MineParseErrorKeepsSessionUsable) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO t\n");
  client.ReadResponse();
  client.Send("MINE this is not a query\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR PARSE", 0), 0u);
  client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
}

TEST_F(ServerTest, UnknownAndMalformedCommands) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("FROBNICATE\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR BADCMD", 0), 0u);
  client.Send("STATS now\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR BADCMD", 0), 0u);
  client.Send("HELLO bad tenant name\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR BADCMD", 0), 0u);
  EXPECT_GE(server->stats().protocol_errors.load(), 3u);
}

TEST_F(ServerTest, TornFramesReassembled) {
  auto server = StartServer();
  Client client(server->port());
  const std::string request =
      std::string("HELLO torn\nMINE ") + kDrillDown[0] + "\n";
  // Dribble the pipelined requests a few bytes at a time.
  for (size_t i = 0; i < request.size(); i += 3) {
    client.Send(request.substr(i, 3));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(client.ReadResponse(), OkResponse("hello torn\n"));
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
}

TEST_F(ServerTest, OversizedLineDiscardedSessionUsable) {
  ServerOptions options;
  options.max_line_bytes = 128;
  auto server = StartServer(options);
  Client client(server->port());
  client.Send("HELLO big\n");
  client.ReadResponse();
  client.Send(std::string(4096, 'x') + "\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR TOOLONG", 0), 0u);
  client.Send("STATS\n");
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
  EXPECT_GE(server->stats().oversized_lines.load(), 1u);
}

TEST_F(ServerTest, DoubleQuitAnsweredThenClosed) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("QUIT\nQUIT\n");  // pipelined: both must be answered
  EXPECT_EQ(client.ReadResponse(), OkResponse("bye\n"));
  EXPECT_EQ(client.ReadResponse().rfind("ERR BADCMD", 0), 0u);
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServerTest, EmptyLinesIgnored) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("\n\r\nHELLO quiet\n\nSTATS\n");
  EXPECT_EQ(client.ReadResponse(), OkResponse("hello quiet\n"));
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
}

TEST_F(ServerTest, TinyDeadlineAnswersDeadline) {
  ServerOptions options;
  options.service.deadline_ms = 0.0001;  // expires before execution starts
  auto server = StartServer(options);
  Client client(server->port());
  client.Send("HELLO rushed\n");
  client.ReadResponse();
  client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR DEADLINE", 0), 0u);
  client.Send("STATS\n");  // deadline counts as a mine error
  std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("mines 1 errors 1 "), std::string::npos) << stats;
}

// A constrained MINE is answered byte-identically to a direct engine
// replay, and differs from the unconstrained MINE of the same box.
TEST_F(ServerTest, ConstrainedMineMatchesEngineAndDiffersFromPlain) {
  const char* plain =
      "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
      "HAVING minsupport = 0.5 AND minconfidence = 0.6;";
  const char* constrained =
      "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
      "AND EXCLUDE { Salary = 90K-120K } "
      "HAVING minsupport = 0.5 AND minconfidence = 0.6;";
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO carol\n");
  client.ReadResponse();

  client.Send(std::string("MINE ") + plain + "\n");
  std::string plain_resp = client.ReadResponse();
  ASSERT_EQ(plain_resp.rfind("OK ", 0), 0u);
  client.Send(std::string("MINE ") + constrained + "\n");
  std::string constrained_resp = client.ReadResponse();
  ASSERT_EQ(constrained_resp.rfind("OK ", 0), 0u);
  EXPECT_NE(plain_resp, constrained_resp);

  QueryCache replay_cache(engine_->index(),
                          server->service().options().tenant_cache);
  auto query = ParseQuery(data_->schema(), constrained);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_FALSE(query->constraints.Empty());
  // Replay the session's query order so cache state matches.
  auto first = ParseQuery(data_->schema(), plain);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(
      engine_->Execute(*first, SessionContext{&replay_cache, nullptr}).ok());
  auto direct =
      engine_->Execute(*query, SessionContext{&replay_cache, nullptr});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(constrained_resp,
            OkResponse(RenderMineResult(data_->schema(), direct.value())));
}

// A malformed constraint clause is an ERR PARSE naming the offending
// token, and the session stays usable.
TEST_F(ServerTest, MalformedConstraintClauseIsParseError) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO dave\n");
  client.ReadResponse();
  const char* bad[] = {
      // Unknown value label in the CONTAIN item list.
      "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = "
      "{Seattle} AND CONTAIN { Gender = X } HAVING minsupport = 0.5 AND "
      "minconfidence = 0.6;\n",
      // Unknown attribute in ANTECEDENT ATTRIBUTES.
      "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = "
      "{Seattle} AND ANTECEDENT ATTRIBUTES { Shoesize } HAVING "
      "minsupport = 0.5 AND minconfidence = 0.6;\n",
      // Unknown measure threshold name.
      "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = "
      "{Seattle} HAVING minsupport = 0.5 AND minconfidence = 0.6 AND "
      "minwobble = 0.5;\n",
  };
  for (const char* line : bad) {
    client.Send(line);
    std::string resp = client.ReadResponse();
    EXPECT_EQ(resp.rfind("ERR PARSE", 0), 0u) << resp;
  }
  client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);
}

// EXPLAIN of a constrained query carries the constraint provenance the
// optimizer recorded (which clauses were pushed into the plan).
TEST_F(ServerTest, ExplainShowsConstraintProvenance) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO erin\n");
  client.ReadResponse();
  client.Send(
      "EXPLAIN REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = "
      "{Seattle} AND CONTAIN { Gender = F } AND ANTECEDENT ATTRIBUTES "
      "{ Age } HAVING minsupport = 0.5 AND minconfidence = 0.6 AND "
      "minkulczynski = 0.5;\n");
  std::string resp = client.ReadResponse();
  ASSERT_EQ(resp.rfind("OK ", 0), 0u) << resp;
  EXPECT_NE(resp.find("constraints pushed into plan:"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("CONTAIN {Gender=F}"), std::string::npos) << resp;
  EXPECT_NE(resp.find("ANTECEDENT ATTRIBUTES {Age}"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("minkulczynski"), std::string::npos) << resp;
}

// The per-request deadline holds for constrained mines too: the constraint
// pushdown path polls the same deadline checks as the plain one.
TEST_F(ServerTest, TinyDeadlineHonoredMidConstrainedMine) {
  ServerOptions options;
  options.service.deadline_ms = 0.0001;  // expires before execution starts
  auto server = StartServer(options);
  Client client(server->port());
  client.Send("HELLO frank\n");
  client.ReadResponse();
  client.Send(
      "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = "
      "{Seattle} AND CONTAIN { Gender = F } HAVING minsupport = 0.5 AND "
      "minconfidence = 0.6;\n");
  EXPECT_EQ(client.ReadResponse().rfind("ERR DEADLINE", 0), 0u);
  client.Send("STATS\n");
  std::string stats = client.ReadResponse();
  EXPECT_NE(stats.find("mines 1 errors 1 "), std::string::npos) << stats;
}

TEST(ServiceAdmissionTest, BoundsEnforcedDeterministically) {
  auto data = std::make_unique<Dataset>(MakeSalaryDataset());
  EngineOptions engine_options;
  engine_options.index.primary_support = kPrimarySupport;
  engine_options.calibrate = false;
  auto engine = Engine::Build(*data, engine_options);
  ASSERT_TRUE(engine.ok());

  ServiceOptions options;
  options.max_inflight = 3;
  options.max_tenant_inflight = 2;
  Service service(**engine, options);
  auto a = service.GetTenant("a");
  auto b = service.GetTenant("b");

  // Tenant fairness: a's third admit fails even though the global bound
  // still has room.
  EXPECT_TRUE(service.Admit(a.get()));
  EXPECT_TRUE(service.Admit(a.get()));
  EXPECT_FALSE(service.Admit(a.get()));
  // Global bound: with 2 slots held by a, b gets one, then the cap.
  EXPECT_TRUE(service.Admit(b.get()));
  EXPECT_FALSE(service.Admit(b.get()));
  EXPECT_EQ(service.inflight(), 3u);
  // Release restores both bounds.
  service.Release(a.get());
  EXPECT_TRUE(service.Admit(b.get()));
  service.Release(a.get());
  service.Release(b.get());
  service.Release(b.get());
  EXPECT_EQ(service.inflight(), 0u);
  EXPECT_EQ(a->inflight(), 0u);
  EXPECT_EQ(b->inflight(), 0u);
}

TEST_F(ServerTest, ConcurrentClientsGetWellFormedResponses) {
  // 8 clients, each its own tenant and connection, hammering pipelined
  // MINE/STATS/EXPLAIN traffic. This is the main TSan workload: the
  // assertion here is well-formedness and rule-count agreement; the nested
  // TSan build asserts the absence of data races.
  auto server = StartServer();
  constexpr int kClients = 8;
  constexpr int kRounds = 6;

  // Sequential reference: the rule listing per drill-down step. Rules are
  // cache-independent (the plan-equivalence invariant); the plan/cache
  // summary line is not compared here because batching and cross-round
  // cache state legitimately change the tier the optimizer reports.
  std::vector<std::string> expected_rules;
  for (const char* text : kDrillDown) {
    auto query = ParseQuery(data_->schema(), text);
    ASSERT_TRUE(query.ok());
    auto direct = engine_->Execute(*query);
    ASSERT_TRUE(direct.ok());
    std::string payload = RenderMineResult(data_->schema(), direct.value());
    expected_rules.push_back(payload.substr(payload.find('\n') + 1));
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server->port());
      client.Send("HELLO tenant" + std::to_string(c) + "\n");
      if (client.ReadResponse().rfind("OK ", 0) != 0) {
        failures[c]++;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Pipeline the whole drill-down, then read all responses back.
        std::string burst;
        for (const char* text : kDrillDown) {
          burst += std::string("MINE ") + text + "\n";
        }
        burst += "STATS\n";
        client.Send(burst);
        for (size_t q = 0; q < std::size(kDrillDown); ++q) {
          std::string resp = client.ReadResponse();
          // BUSY is a legal fast-fail under concurrent load; anything
          // else must carry exactly the reference rule listing.
          if (resp.rfind("ERR BUSY", 0) == 0) continue;
          if (resp.rfind("OK ", 0) != 0) {
            failures[c]++;
            continue;
          }
          if (RulesOf(resp) != expected_rules[q]) failures[c]++;
        }
        if (client.ReadResponse().rfind("OK ", 0) != 0) failures[c]++;
      }
      client.Send("QUIT\n");
      if (client.ReadResponse() != OkResponse("bye\n")) failures[c]++;
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
}

TEST_F(ServerTest, BatchedPipelineMatchesSequentialRules) {
  // A pipelined burst from one connection lands on its tenant's strand,
  // and one worker turn runs it as one engine batch; every response must
  // be byte-identical to sequential execution, cache tier line included.
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO burst\n");
  client.ReadResponse();
  std::string burst;
  for (const char* text : kDrillDown) {
    burst += std::string("MINE ") + text + "\n";
  }
  client.Send(burst);

  QueryCache cache(engine_->index(), server->service().options().tenant_cache);
  for (const char* text : kDrillDown) {
    std::string resp = client.ReadResponse();
    ASSERT_EQ(resp.rfind("OK ", 0), 0u) << resp;
    auto query = ParseQuery(data_->schema(), text);
    ASSERT_TRUE(query.ok());
    auto direct = engine_->Execute(*query, SessionContext{&cache, nullptr});
    ASSERT_TRUE(direct.ok());
    // Each request runs under its own deadline token, so even the burst's
    // duplicate (kDrillDown[2] = [0]) makes its own lookup, as the replay
    // does.
    EXPECT_EQ(resp,
              OkResponse(RenderMineResult(data_->schema(), direct.value())))
        << text;
  }
}

TEST_F(ServerTest, ExpiredMineGroupLeavesTenantCacheUntouched) {
  // Three pipelined MINEs whose deadlines passed while they were queued
  // fail without touching the tenant's cache, as each would alone.
  Service service(*engine_, ServiceOptions{});
  std::shared_ptr<Tenant> tenant = service.GetTenant("late");
  std::vector<Service::MineRequest> group;
  for (size_t q : {0, 1, 3}) {
    auto query = ParseQuery(data_->schema(), kDrillDown[q]);
    ASSERT_TRUE(query.ok());
    Service::MineRequest request;
    request.query = std::move(query.value());
    request.has_deadline = true;
    request.deadline = CancelToken::Clock::now() - std::chrono::seconds(1);
    group.push_back(std::move(request));
  }
  const std::vector<std::string> responses =
      service.ExecuteMineGroup(tenant.get(), group, nullptr);
  ASSERT_EQ(responses.size(), group.size());
  for (const std::string& response : responses) {
    EXPECT_EQ(response, ErrResponse("DEADLINE",
                                    "deadline expired before execution"));
  }
  const std::string stats = service.RenderStats(tenant.get());
  EXPECT_NE(stats.find("mines 3 errors 3 rules 0 "), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("cache exact 0 containment 0 compose 0 memo 0 "
                       "misses 0 evictions 0 admitrej 0 bytes 0 entries 0\n"),
            std::string::npos)
      << stats;
}

TEST_F(ServerTest, IdenticalMineKeepsItsOwnDeadline) {
  // Two identical MINEs in one group: the first expired while queued, the
  // second still has time. The second answers under its own deadline.
  Service service(*engine_, ServiceOptions{});
  std::shared_ptr<Tenant> tenant = service.GetTenant("twins");
  auto query = ParseQuery(data_->schema(), kDrillDown[0]);
  ASSERT_TRUE(query.ok());
  std::vector<Service::MineRequest> group(2);
  for (Service::MineRequest& request : group) {
    request.query = query.value();
    request.has_deadline = true;
  }
  group[0].deadline = CancelToken::Clock::now() - std::chrono::seconds(1);
  group[1].deadline = CancelToken::Clock::now() + std::chrono::hours(1);
  const std::vector<std::string> responses =
      service.ExecuteMineGroup(tenant.get(), group, nullptr);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0], ErrResponse("DEADLINE",
                                      "deadline expired before execution"));
  auto direct = engine_->Execute(query.value());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(RulesOf(responses[1]),
            RulesOf(OkResponse(RenderMineResult(data_->schema(), *direct))));
}

TEST_F(ServerTest, PipelinedGroupStatsEqualOneAtATime) {
  // One tenant's threshold sweep over a region window, with a narrowed
  // window every fourth request and an exact repeat, run through
  // ExecuteMineGroup in groups of 1, 4 and 16 on fresh services. How a
  // strand groups a pipelined burst must change neither a response nor
  // the tenant's STATS payload.
  BuildEngine(GenerateSynthetic(ChessLikeConfig(0.25)).value(),
              /*primary_support=*/0.6, /*threads=*/2);
  const double supps[] = {0.75, 0.8, 0.85, 0.9};
  std::vector<Service::MineRequest> sweep(16);
  for (size_t k = 0; k < sweep.size(); ++k) {
    LocalizedQuery& query = sweep[k].query;
    const bool narrowed = k % 4 == 3;
    query.ranges = {
        {0, static_cast<ValueId>(narrowed ? 11 + k / 4 : 10), 49}};
    query.minsupp = supps[k % 4];
    query.minconf = k < 8 ? 0.8 : 0.9;
  }

  std::vector<std::vector<std::string>> responses;
  std::vector<std::string> stats;
  for (size_t group_size : {1u, 4u, 16u}) {
    Service service(*engine_, ServiceOptions{});
    std::shared_ptr<Tenant> tenant = service.GetTenant("sweep");
    std::vector<std::string> answered;
    for (size_t first = 0; first < sweep.size(); first += group_size) {
      const std::vector<std::string> group = service.ExecuteMineGroup(
          tenant.get(),
          std::span<const Service::MineRequest>(sweep).subspan(first,
                                                               group_size),
          nullptr);
      answered.insert(answered.end(), group.begin(), group.end());
    }
    ASSERT_EQ(answered.size(), sweep.size());
    for (const std::string& response : answered) {
      ASSERT_EQ(response.rfind("OK ", 0), 0u) << response;
    }
    responses.push_back(std::move(answered));
    stats.push_back(service.RenderStats(tenant.get()));
  }
  EXPECT_NE(stats[0].find("mines 16 errors 0 "), std::string::npos)
      << stats[0];
  EXPECT_NE(stats[0].find("cache exact 11 containment 4 "),
            std::string::npos)
      << stats[0];
  for (size_t g = 1; g < responses.size(); ++g) {
    for (size_t k = 0; k < sweep.size(); ++k) {
      EXPECT_EQ(responses[g][k], responses[0][k])
          << "group run " << g << " request " << k;
    }
    EXPECT_EQ(stats[g], stats[0]) << "group run " << g;
  }
}

TEST_F(ServerTest, HalfCloseStillAnswersThenCloses) {
  // nc-style client: send everything, shutdown(WR), then read all output.
  auto server = StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      std::string("HELLO nc\nMINE ") + kDrillDown[0] + "\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string all;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    all.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(all.rfind(OkResponse("hello nc\n"), 0), 0u) << all;
  EXPECT_NE(all.find("plan "), std::string::npos) << all;
}

TEST_F(ServerTest, GracefulShutdownDrainsAndRejectsNewWork) {
  auto server = StartServer();
  Client client(server->port());
  client.Send("HELLO drain\n");
  client.ReadResponse();
  client.Send(std::string("MINE ") + kDrillDown[0] + "\n");
  EXPECT_EQ(client.ReadResponse().rfind("OK ", 0), 0u);

  std::thread stopper([&] { server->Shutdown(); });
  server->Wait();
  stopper.join();
  EXPECT_EQ(server->service().inflight(), 0u);

  // The listener is gone: new connections are refused.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);

  // Shutdown is idempotent.
  server->Shutdown();
}

TEST_F(ServerTest, ShutdownWhileMinesInFlightStillStops) {
  auto server = StartServer();
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server->port());
      client.Send("HELLO race" + std::to_string(c) + "\n");
      client.ReadResponse();
      for (int i = 0; i < 20; ++i) {
        client.Send(std::string("MINE ") + kDrillDown[i % 4] + "\n");
        std::string resp = client.ReadResponse();
        if (resp.empty()) return;  // connection closed by shutdown
        // OK, BUSY, SHUTDOWN, and DEADLINE (kill-switch) are all legal.
        EXPECT_TRUE(resp.rfind("OK ", 0) == 0 ||
                    resp.rfind("ERR BUSY", 0) == 0 ||
                    resp.rfind("ERR SHUTDOWN", 0) == 0 ||
                    resp.rfind("ERR DEADLINE", 0) == 0)
            << resp;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->Shutdown();
  for (auto& t : threads) t.join();
  EXPECT_EQ(server->service().inflight(), 0u);
}

// Two connections of one tenant plus three single-connection tenants, all
// pipelining MINE/EXPLAIN/STATS bursts through four dispatcher workers.
// Every connection's responses come back in request order, and each
// tenant's STATS equals a sequential per-tenant replay of its requests
// against a fresh session cache. Each burst asks for distinct focal boxes,
// so running a burst as one batch changes no cache counter, and the shared
// tenant's connections drill into disjoint regions (Seattle and Boston), so
// no interleaving of the two changes one either.
TEST_F(ServerTest, TenantStrandsKeepOrderAndSequentialStats) {
  BuildEngine(MakeSalaryDataset(), kPrimarySupport, /*threads=*/4);
  ServerOptions options;
  options.service.max_inflight = 256;
  options.service.max_tenant_inflight = 64;
  auto server = StartServer(options);

  auto query_text = [](const std::string& ranges) {
    return "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE " + ranges +
           " HAVING minsupport = 0.5 AND minconfidence = 0.6;";
  };
  const std::vector<std::string> seattle = {
      query_text("Location = {Seattle}"),
      query_text("Location = {Seattle} AND Age = {30-40}"),
      query_text("Location = {Seattle} AND Company = {Microsoft}"),
      query_text("Location = {Seattle} AND Company = {Facebook}")};
  const std::vector<std::string> boston = {
      query_text("Location = {Boston}"),
      query_text("Location = {Boston} AND Gender = {M}"),
      query_text("Location = {Boston} AND Age = {20-30}"),
      query_text("Location = {Boston} AND Company = {Google}")};
  const std::vector<std::string> other = {
      query_text("Gender = {M}"),
      query_text("Gender = {F} AND Age = {20-30}"),
      query_text("Company = {Google}"),
      query_text("Age = {30-40}")};

  struct Session {
    std::string tenant;
    const std::vector<std::string>* queries;
  };
  const std::vector<Session> sessions = {{"shared", &seattle},
                                         {"shared", &boston},
                                         {"t1", &seattle},
                                         {"t2", &boston},
                                         {"t3", &other}};
  constexpr int kRounds = 3;
  struct Request {
    Verb verb;
    size_t query;  // unused for STATS
  };
  const std::vector<Request> burst = {
      {Verb::kMine, 0},    {Verb::kMine, 1}, {Verb::kExplain, 2},
      {Verb::kMine, 2},    {Verb::kStats, 0}, {Verb::kMine, 3}};

  // Sequential per-tenant replay. The shared tenant replays its first
  // connection's requests, then its second's.
  struct Replay {
    std::unique_ptr<QueryCache> cache;
    TenantStats stats;
  };
  std::map<std::string, Replay> replays;
  // Per session, per request: the expected rule listing (MINE), response
  // (EXPLAIN) or STATS body (empty for the shared tenant, whose mid-run
  // counters depend on its other connection's progress).
  std::vector<std::vector<std::string>> expected(sessions.size());
  for (size_t s = 0; s < sessions.size(); ++s) {
    const Session& session = sessions[s];
    Replay& replay = replays[session.tenant];
    if (replay.cache == nullptr) {
      replay.cache = std::make_unique<QueryCache>(
          engine_->index(), server->service().options().tenant_cache);
    }
    const SessionContext context{replay.cache.get(), nullptr};
    const bool shared = session.tenant == "shared";
    for (int round = 0; round < kRounds; ++round) {
      for (const Request& request : burst) {
        if (request.verb == Verb::kStats) {
          const CacheTelemetry telemetry = replay.cache->telemetry();
          expected[s].push_back(
              shared ? "" : StatsBody(RenderStatsPayload(
                                session.tenant, replay.stats, &telemetry,
                                0, 0)));
          continue;
        }
        auto query =
            ParseQuery(data_->schema(), (*session.queries)[request.query]);
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        if (request.verb == Verb::kExplain) {
          auto decision = engine_->Explain(*query, context);
          ASSERT_TRUE(decision.ok());
          replay.stats.explains++;
          expected[s].push_back(OkResponse(RenderExplain(*decision)));
          continue;
        }
        auto result = engine_->Execute(*query, context);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        replay.stats.mines++;
        replay.stats.rules += result->rules.rules.size();
        expected[s].push_back(RulesOf(
            OkResponse(RenderMineResult(data_->schema(), *result))));
      }
    }
    // Reordered MINE responses are caught only if a session's rule
    // listings differ from each other.
    for (size_t a = 0; a < burst.size(); ++a) {
      for (size_t b = a + 1; b < burst.size(); ++b) {
        if (burst[a].verb != Verb::kMine || burst[b].verb != Verb::kMine) {
          continue;
        }
        ASSERT_NE(expected[s][a], expected[s][b])
            << session.tenant << " requests " << a << " and " << b;
      }
    }
  }

  std::vector<std::vector<std::string>> failures(sessions.size());
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions.size(); ++s) {
    threads.emplace_back([&, s] {
      const Session& session = sessions[s];
      std::vector<std::string>& failed = failures[s];
      Client client(server->port());
      client.Send("HELLO " + session.tenant + "\n");
      if (client.ReadResponse() != OkResponse("hello " + session.tenant +
                                              "\n")) {
        failed.push_back("HELLO");
        return;
      }
      size_t next = 0;
      for (int round = 0; round < kRounds; ++round) {
        std::string bytes;
        for (const Request& request : burst) {
          const std::string& text = (*session.queries)[request.query];
          switch (request.verb) {
            case Verb::kMine: bytes += "MINE " + text + "\n"; break;
            case Verb::kExplain: bytes += "EXPLAIN " + text + "\n"; break;
            default: bytes += "STATS\n"; break;
          }
        }
        client.Send(bytes);
        for (const Request& request : burst) {
          const std::string response = client.ReadResponse();
          const std::string& want = expected[s][next];
          bool ok = response.rfind("OK ", 0) == 0;
          if (ok && request.verb == Verb::kMine) {
            ok = RulesOf(response) == want;
          } else if (ok && request.verb == Verb::kExplain) {
            ok = response == want;
          } else if (ok) {
            const std::string payload =
                response.substr(response.find('\n') + 1);
            ok = want.empty() ? payload.rfind("tenant shared\n", 0) == 0
                              : StatsBody(payload) == want;
          }
          if (!ok) {
            failed.push_back(StrFormat("round %d request %zu: ", round,
                                       next % burst.size()) +
                             response.substr(0, 200));
          }
          ++next;
        }
      }
      client.Send("QUIT\n");
      if (client.ReadResponse() != OkResponse("bye\n")) {
        failed.push_back("QUIT");
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t s = 0; s < sessions.size(); ++s) {
    EXPECT_TRUE(failures[s].empty())
        << "session " << s << " (" << sessions[s].tenant << "): "
        << failures[s].size() << " failures, first: "
        << (failures[s].empty() ? "" : failures[s].front());
  }

  // A worker releases a MINE's admission slot just after delivering its
  // response; wait for the last release before reading the counters.
  for (int i = 0; i < 1000 && server->service().inflight() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->service().inflight(), 0u);
  for (const auto& [tenant, replay] : replays) {
    Client client(server->port());
    client.Send("HELLO " + tenant + "\nSTATS\n");
    client.ReadResponse();
    const CacheTelemetry telemetry = replay.cache->telemetry();
    EXPECT_EQ(client.ReadResponse(),
              OkResponse(RenderStatsPayload(tenant, replay.stats, &telemetry,
                                            0, 0)))
        << tenant;
  }
}

// Shutdown while four tenants have MINEs queued and running on four
// dispatcher workers: every admitted MINE is answered exactly once (OK,
// DEADLINE from the kill-switch, or SHUTDOWN), the admission counters
// return to zero, and the workers join within the drain budget.
TEST_F(ServerTest, ShutdownDrainsEveryTenantStrand) {
  BuildEngine(GenerateSynthetic(ChessLikeConfig(0.25)).value(),
              /*primary_support=*/0.6, /*threads=*/4);
  ServerOptions options;
  options.drain_timeout_ms = 1000.0;
  // Short turns: most of each tenant's burst waits on its strand when the
  // drain starts, and a worker's turn in flight stays short to unwind.
  options.batch_max = 2;
  options.service.max_inflight = 512;
  options.service.max_tenant_inflight = 128;
  auto server = StartServer(options);

  // Distinct region boxes and thresholds, so no MINE is a duplicate or an
  // exact cache hit of another and each one mines.
  const Attribute& region = data_->schema().attribute(0);
  const uint32_t domain = region.domain_size();
  constexpr int kTenants = 4;
  constexpr int kMines = 96;
  std::vector<std::vector<std::string>> lines(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    for (int m = 0; m < kMines; ++m) {
      const uint32_t lo = (t * kMines + m) % (domain / 4);
      const uint32_t hi = std::min(domain - 1, lo + domain / 2 + m % 3);
      std::string values;
      for (uint32_t v = lo; v <= hi; ++v) {
        if (!values.empty()) values += ", ";
        values += region.values[v];
      }
      lines[t].push_back(StrFormat(
          "MINE REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE %s = {%s} "
          "HAVING minsupport = %.2f AND minconfidence = 0.99;\n",
          region.name.c_str(), values.c_str(), 0.78 + 0.01 * (m % 4)));
    }
  }

  std::vector<std::vector<std::string>> responses(kTenants);
  std::vector<int> eof(kTenants, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Client client(server->port());
      client.Send("HELLO drain" + std::to_string(t) + "\n");
      if (client.ReadResponse().rfind("OK ", 0) != 0) return;
      std::string burst;
      for (const std::string& line : lines[t]) burst += line;
      client.Send(burst);
      for (;;) {
        std::string response = client.ReadResponse();
        if (response.empty()) break;
        responses[t].push_back(std::move(response));
      }
      eof[t] = client.AtEof() ? 1 : 0;
    });
  }
  const uint64_t total = uint64_t{kTenants} * kMines;
  for (int i = 0;
       i < 2000 && server->stats().requests_admitted.load() < total; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->stats().requests_admitted.load(), total);

  const auto start = std::chrono::steady_clock::now();
  server->Shutdown();
  const double shutdown_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  for (auto& t : threads) t.join();

  // Phase 2 waits at most one drain budget before the kill-switch fires;
  // the workers then join, and the outboxes flush, within one more each.
  EXPECT_LT(shutdown_ms, 3 * options.drain_timeout_ms);
  EXPECT_EQ(server->service().inflight(), 0u);
  int answered = 0;
  int killed = 0;
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(responses[t].size(), static_cast<size_t>(kMines))
        << "tenant " << t;
    EXPECT_EQ(eof[t], 1) << "tenant " << t;
    for (const std::string& response : responses[t]) {
      const bool ok = response.rfind("OK ", 0) == 0;
      const bool deadline = response.rfind("ERR DEADLINE", 0) == 0;
      EXPECT_TRUE(ok || deadline || response.rfind("ERR SHUTDOWN", 0) == 0)
          << response;
      answered += ok ? 1 : 0;
      killed += deadline ? 1 : 0;
    }
  }
  std::printf("drain: %d answered, %d unwound by the kill-switch, "
              "shutdown %.1f ms\n",
              answered, killed, shutdown_ms);
}

}  // namespace
}  // namespace colarm
