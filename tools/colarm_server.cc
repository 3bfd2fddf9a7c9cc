// colarm_server — multi-tenant TCP front end for the COLARM engine.
//
// One engine (and its MIP-index) is shared by every tenant; each tenant
// gets a private session cache, so an analyst's drill-down sequence hits
// its own containment tiers. The protocol is line-oriented text — try it
// with nc:
//
//   $ colarm_server --port 7437 &
//   $ printf 'HELLO alice\nMINE REPORT LOCALIZED ASSOCIATION RULES WHERE
//     RANGE Location = {Seattle} HAVING minsupport = 0.6 AND
//     minconfidence = 0.75;\nQUIT\n' | nc 127.0.0.1 7437
//
// Flags:
//   --port N            TCP port (default 0 = ephemeral; the bound port is
//                       printed as "LISTENING <port>" on stdout)
//   --host ADDR         bind address (default 127.0.0.1)
//   --csv FILE          input relation (default: built-in salary data)
//   --bins N            discretization bins for numeric CSV columns
//   --primary F         primary support for the offline build
//   --threads N         engine worker threads (0 = hardware); also the
//                       number of tenants whose requests run at once
//   --io-threads N      event-loop threads (0 = min(hardware, 4))
//   --cache-mb N        per-tenant session-cache budget in MiB
//                       (default 16; 0 disables tenant caches)
//   --cache-dir PATH    warm-start directory: tenant caches load from
//                       PATH/<tenant>.ccache at HELLO and persist back
//                       at drain (missing/corrupt files start cold)
//   --max-inflight N    global admitted-request bound (default 64)
//   --tenant-inflight N per-tenant admitted-request bound (default 16)
//   --deadline-ms F     per-request deadline (default 0 = none)
//   --no-calibrate      use portable cost constants (deterministic plan
//                       choice; what server_smoke relies on)
//
// SIGINT/SIGTERM drain gracefully: listeners close, admitted queries
// finish (bounded), responses flush, then the process exits 0.
#include <signal.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "data/csv_reader.h"
#include "data/salary_dataset.h"
#include "server/server.h"

namespace colarm {
namespace {

struct ToolOptions {
  ServerOptions server;
  std::string csv_path;
  uint32_t bins = 5;
  double primary = 0.1;
  unsigned threads = 0;
  size_t cache_mb = 16;
  bool calibrate = true;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--host ADDR] [--csv FILE] [--bins N]\n"
               "          [--primary F] [--threads N] [--io-threads N]\n"
               "          [--cache-mb N] [--cache-dir PATH] [--max-inflight N]\n"
               "          [--tenant-inflight N] [--deadline-ms F]\n"
               "          [--no-calibrate]\n",
               argv0);
  return 2;
}

Result<ToolOptions> ParseArgs(int argc, char** argv) {
  ToolOptions options;
  int i = 1;
  auto need_value = [&](const char* flag) -> Result<std::string> {
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(flag) + " needs a value");
    }
    return std::string(argv[++i]);
  };
  auto need_uint = [&](const char* flag) -> Result<uint64_t> {
    auto v = need_value(flag);
    if (!v.ok()) return v.status();
    uint64_t parsed = 0;
    if (!ParseUint64(*v, &parsed)) {
      return Status::InvalidArgument(std::string(flag) +
                                     " must be a non-negative integer");
    }
    return parsed;
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      auto v = need_uint("--port");
      if (!v.ok()) return v.status();
      if (*v > 65535) return Status::InvalidArgument("--port out of range");
      options.server.port = static_cast<uint16_t>(*v);
    } else if (arg == "--host") {
      auto v = need_value("--host");
      if (!v.ok()) return v.status();
      options.server.host = *v;
    } else if (arg == "--csv") {
      auto v = need_value("--csv");
      if (!v.ok()) return v.status();
      options.csv_path = *v;
    } else if (arg == "--bins") {
      auto v = need_uint("--bins");
      if (!v.ok()) return v.status();
      if (*v == 0) return Status::InvalidArgument("--bins must be positive");
      options.bins = static_cast<uint32_t>(*v);
    } else if (arg == "--primary") {
      auto v = need_value("--primary");
      if (!v.ok()) return v.status();
      if (!ParseDouble(*v, &options.primary)) {
        return Status::InvalidArgument("--primary must be a number");
      }
    } else if (arg == "--threads") {
      auto v = need_uint("--threads");
      if (!v.ok()) return v.status();
      options.threads = static_cast<unsigned>(*v);
    } else if (arg == "--io-threads") {
      auto v = need_uint("--io-threads");
      if (!v.ok()) return v.status();
      options.server.io_threads = static_cast<unsigned>(*v);
    } else if (arg == "--cache-mb") {
      auto v = need_uint("--cache-mb");
      if (!v.ok()) return v.status();
      options.cache_mb = *v;
    } else if (arg == "--cache-dir") {
      auto v = need_value("--cache-dir");
      if (!v.ok()) return v.status();
      options.server.service.cache_dir = *v;
    } else if (arg == "--max-inflight") {
      auto v = need_uint("--max-inflight");
      if (!v.ok()) return v.status();
      if (*v == 0) {
        return Status::InvalidArgument("--max-inflight must be positive");
      }
      options.server.service.max_inflight = static_cast<uint32_t>(*v);
    } else if (arg == "--tenant-inflight") {
      auto v = need_uint("--tenant-inflight");
      if (!v.ok()) return v.status();
      if (*v == 0) {
        return Status::InvalidArgument("--tenant-inflight must be positive");
      }
      options.server.service.max_tenant_inflight = static_cast<uint32_t>(*v);
    } else if (arg == "--deadline-ms") {
      auto v = need_value("--deadline-ms");
      if (!v.ok()) return v.status();
      if (!ParseDouble(*v, &options.server.service.deadline_ms) ||
          options.server.service.deadline_ms < 0) {
        return Status::InvalidArgument(
            "--deadline-ms must be a non-negative number");
      }
    } else if (arg == "--no-calibrate") {
      options.calibrate = false;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  options.server.service.tenant_cache.byte_budget = options.cache_mb << 20;
  return options;
}

int ServerMain(int argc, char** argv) {
  // Block the shutdown signals before any thread exists (the engine's pool
  // starts in Engine::Build), so every thread inherits the mask and a
  // process-directed SIGINT/SIGTERM waits for the sigwait below: the drain
  // runs on the main thread, not in a signal handler. A signal that arrives
  // during the index build stays pending and drains the server as soon as
  // it listens.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage(argv[0]);
  }
  const ToolOptions& options = *parsed;

  Dataset dataset = MakeSalaryDataset();
  if (!options.csv_path.empty()) {
    CsvOptions csv_options;
    csv_options.numeric_bins = options.bins;
    auto loaded = ReadCsvFile(options.csv_path, csv_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", options.csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded.value());
  } else {
    std::fprintf(stderr, "note: no --csv given, using built-in salary data\n");
  }

  EngineOptions engine_options;
  engine_options.index.primary_support =
      options.csv_path.empty() ? 0.27 : options.primary;
  engine_options.calibrate = options.calibrate;
  engine_options.num_threads = options.threads;
  auto engine = Engine::Build(dataset, engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // Writes race client disconnects by design; MSG_NOSIGNAL covers sends,
  // this covers anything else.
  ::signal(SIGPIPE, SIG_IGN);

  Server server(**engine, options.server);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::fprintf(stderr, "signal %d: draining\n", sig);
  server.Shutdown();
  // After the event loops stop, the tenant caches are quiescent — persist
  // them so the next process starts warm.
  if (!options.server.service.cache_dir.empty()) {
    const size_t saved = server.service().PersistCaches();
    std::fprintf(stderr, "persisted %zu tenant cache(s) to %s\n", saved,
                 options.server.service.cache_dir.c_str());
  }
  std::fprintf(stderr, "drained, bye\n");
  return 0;
}

}  // namespace
}  // namespace colarm

int main(int argc, char** argv) { return colarm::ServerMain(argc, argv); }
