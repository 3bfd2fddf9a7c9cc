// End-to-end smoke of the real colarm_server binary (tier-1 ctest entry
// `server_smoke`): spawn it on an ephemeral port, drive a scripted
// multi-tenant session over TCP, and diff every response byte-for-byte
// against a direct Engine replay with the same per-tenant session caches.
// Finishes with a SIGTERM and asserts a clean graceful-drain exit. A
// second check asserts that every thread of a listening server blocks
// SIGINT and SIGTERM, so a process-directed signal always reaches the
// draining sigwait instead of killing the process.
//
// argv[1] is the path to the colarm_server binary (passed by CMake as
// $<TARGET_FILE:colarm_server>).
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/query_parser.h"
#include "data/salary_dataset.h"
#include "server/server.h"

namespace colarm {
namespace {

const char* g_server_binary = nullptr;

/// The server process under test, spawned with its stdout on a pipe so the
/// test can learn the ephemeral port from the LISTENING line.
class ServerProcess {
 public:
  // Spawning lives outside the constructor so ASSERTs can bail out.
  void Spawn() {
    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::dup2(out[1], STDERR_FILENO);  // drain messages go to stderr
      ::close(out[0]);
      ::close(out[1]);
      ::execl(g_server_binary, g_server_binary, "--no-calibrate", "--port",
              "0", static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
    // Skip startup chatter (the built-in-dataset note) up to LISTENING.
    std::string line = ReadLineContaining("LISTENING ");
    ASSERT_EQ(line.rfind("LISTENING ", 0), 0u) << line;
    port_ = static_cast<uint16_t>(std::stoul(line.substr(10)));
  }

  ~ServerProcess() {
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  std::string ReadStdoutLine() {
    std::string line;
    char c;
    while (::read(stdout_fd_, &c, 1) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  }

  /// Reads output lines until one contains `needle` (or EOF); returns it.
  std::string ReadLineContaining(const char* needle) {
    for (int i = 0; i < 50; ++i) {
      std::string line = ReadStdoutLine();
      if (line.find(needle) != std::string::npos || line.empty()) return line;
    }
    return "";
  }

  /// SIGTERM, then assert the drain messages and a zero exit status.
  void TerminateGracefully() {
    ASSERT_EQ(::kill(pid_, SIGTERM), 0);
    EXPECT_NE(ReadLineContaining("draining").find("draining"),
              std::string::npos);
    EXPECT_NE(ReadLineContaining("drained").find("drained"),
              std::string::npos);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Minimal blocking protocol client (one framed response per request).
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
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string Request(const std::string& line) {
    std::string bytes = line + "\n";
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      EXPECT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
    std::string header = ReadLine();
    if (header.rfind("OK ", 0) == 0) {
      return header + "\n" + ReadExactly(std::stoul(header.substr(3)));
    }
    return header + "\n";
  }

 private:
  std::string ReadLine() {
    std::string line;
    char c;
    while (Read(&c)) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  }
  std::string ReadExactly(size_t n) {
    std::string out;
    char c;
    while (out.size() < n && Read(&c)) out.push_back(c);
    EXPECT_EQ(out.size(), n);
    return out;
  }
  bool Read(char* c) {
    if (pos_ >= buf_.size()) {
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.assign(chunk, static_cast<size_t>(n));
      pos_ = 0;
    }
    *c = buf_[pos_++];
    return true;
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// Direct-engine replica of one tenant session: same engine configuration
/// as the spawned binary (salary dataset, primary 0.27, no calibration),
/// same cache options, rendered with the same protocol functions.
class DirectReplay {
 public:
  explicit DirectReplay(const Engine& engine)
      : engine_(&engine),
        cache_(engine.index(), ServiceOptions{}.tenant_cache) {}

  std::string Mine(const std::string& text) {
    auto query = ParseQuery(schema(), text);
    if (!query.ok()) {
      return ErrResponse("PARSE", query.status().message());
    }
    auto result = engine_->Execute(*query, SessionContext{&cache_, nullptr});
    if (!result.ok()) {
      return ErrResponse(StatusErrCode(result.status()),
                         result.status().message());
    }
    return OkResponse(RenderMineResult(schema(), result.value()));
  }

  std::string Explain(const std::string& text) {
    auto query = ParseQuery(schema(), text);
    if (!query.ok()) {
      return ErrResponse("PARSE", query.status().message());
    }
    auto decision = engine_->Explain(*query, SessionContext{&cache_, nullptr});
    if (!decision.ok()) {
      return ErrResponse(StatusErrCode(decision.status()),
                         decision.status().message());
    }
    return OkResponse(RenderExplain(decision.value()));
  }

 private:
  const Schema& schema() const {
    return engine_->index().dataset().schema();
  }
  const Engine* engine_;
  QueryCache cache_;
};

/// The SigBlk mask of every thread of `pid`, keyed by thread id.
std::vector<std::pair<std::string, uint64_t>> BlockedSignalsPerThread(
    pid_t pid) {
  std::vector<std::pair<std::string, uint64_t>> masks;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return masks;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string tid = entry->d_name;
    if (tid == "." || tid == "..") continue;
    std::ifstream status(task_dir + "/" + tid + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("SigBlk:", 0) != 0) continue;
      masks.emplace_back(tid, std::stoull(line.substr(7), nullptr, 16));
      break;
    }
  }
  ::closedir(dir);
  return masks;
}

TEST(ServerSmokeTest, EveryThreadBlocksShutdownSignals) {
  ASSERT_NE(g_server_binary, nullptr)
      << "usage: server_smoke_test <path-to-colarm_server>";
  ServerProcess server;
  server.Spawn();
  // Once LISTENING is printed, the engine pool, the event loops and the
  // dispatcher workers all exist.
  const auto masks = BlockedSignalsPerThread(server.pid());
  ASSERT_GT(masks.size(), 1u);
  const uint64_t shutdown_signals =
      (uint64_t{1} << (SIGINT - 1)) | (uint64_t{1} << (SIGTERM - 1));
  for (const auto& [tid, mask] : masks) {
    // The main thread is the intended receiver: while it sits in sigwait
    // the kernel reports the awaited signals as unblocked.
    if (tid == std::to_string(server.pid())) continue;
    EXPECT_EQ(mask & shutdown_signals, shutdown_signals)
        << "thread " << tid << " leaves SIGINT/SIGTERM unblocked";
  }
  server.TerminateGracefully();
}

TEST(ServerSmokeTest, MultiTenantSessionByteIdenticalThenDrains) {
  ASSERT_NE(g_server_binary, nullptr)
      << "usage: server_smoke_test <path-to-colarm_server>";
  ServerProcess server;
  server.Spawn();
  ASSERT_NE(server.port(), 0);

  // The replica of the binary's engine: salary dataset, primary support
  // 0.27, portable cost constants (the binary runs --no-calibrate).
  Dataset data = MakeSalaryDataset();
  EngineOptions engine_options;
  engine_options.index.primary_support = 0.27;
  engine_options.calibrate = false;
  auto engine = Engine::Build(data, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::string drill[] = {
      "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
      "HAVING minsupport = 0.5 AND minconfidence = 0.6;",
      "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Location = {Seattle} "
      "AND Gender = {F} HAVING minsupport = 0.5 AND minconfidence = 0.6;",
      "REPORT LOCALIZED ASSOCIATION RULES WHERE RANGE Gender = {M} "
      "HAVING minsupport = 0.4 AND minconfidence = 0.5;",
  };

  // Two tenants on separate connections, requests interleaved. Each tenant
  // owns a session cache, so its replay evolves independently of the
  // other's traffic.
  Client alice(server.port());
  Client bob(server.port());
  DirectReplay alice_replay(**engine);
  DirectReplay bob_replay(**engine);

  EXPECT_EQ(alice.Request("HELLO alice"), OkResponse("hello alice\n"));
  EXPECT_EQ(bob.Request("HELLO bob"), OkResponse("hello bob\n"));

  for (const std::string& text : drill) {
    EXPECT_EQ(alice.Request("MINE " + text), alice_replay.Mine(text)) << text;
    EXPECT_EQ(bob.Request("MINE " + text), bob_replay.Mine(text)) << text;
  }
  // alice repeats her first query: exact cache hit, still byte-identical.
  EXPECT_EQ(alice.Request("MINE " + drill[0]), alice_replay.Mine(drill[0]));
  EXPECT_EQ(alice.Request("EXPLAIN " + drill[1]),
            alice_replay.Explain(drill[1]));

  // Negative paths through the real binary.
  EXPECT_EQ(bob.Request("MINE not a query").rfind("ERR PARSE", 0), 0u);
  EXPECT_EQ(bob.Request("HELLO again").rfind("ERR REHELLO", 0), 0u);
  {
    Client anon(server.port());
    EXPECT_EQ(anon.Request("STATS").rfind("ERR NOHELLO", 0), 0u);
    EXPECT_EQ(anon.Request("QUIT"), OkResponse("bye\n"));
  }

  EXPECT_EQ(alice.Request("QUIT"), OkResponse("bye\n"));
  EXPECT_EQ(bob.Request("QUIT"), OkResponse("bye\n"));

  server.TerminateGracefully();
}

}  // namespace
}  // namespace colarm

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) colarm::g_server_binary = argv[1];
  return RUN_ALL_TESTS();
}
