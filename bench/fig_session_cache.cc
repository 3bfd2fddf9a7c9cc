// fig_session_cache — what the session cache buys an exploration session.
//
// Three analyst workloads over the chess analog, each answered twice: by a
// cache-less engine (cold) and by a cache-enabled engine (first pass warm,
// second pass fully hot):
//
//   drill-down        progressively narrower focal boxes — after the first
//                     query every SELECT is a containment derivation over
//                     the previous subset instead of a relation scan
//   threshold-sweep   one box at several (minsupp, minconf) settings — the
//                     subset is an exact hit and ELIMINATE/VERIFY counts
//                     replay from the count memo
//   neighbouring-box  sliding windows inside one seeded wide box — every
//                     window derives by containment from the seed
//
// Results are identical by construction (the equivalence tests enforce it);
// this figure measures the wall-clock side and appends one JSON line per
// workload to the bench sink.
//
// At full scale (COLARM_BENCH_SCALE >= 1) a second section repeats the
// exercise on the PUMSB analog with a persisted restart in the middle:
// cold, then a fresh process-equivalent engine warm-started from the v4
// cache file (mmap-warm), then fully hot. Those rows land in the sink as
// "figure":"cache_scale".
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/timer.h"
#include "core/cache_persist.h"
#include "harness.h"

namespace colarm {
namespace bench {
namespace {

struct Workload {
  const char* name;
  std::vector<LocalizedQuery> queries;
};

std::vector<Workload> MakeWorkloads(const BenchDataset& dataset) {
  const Schema& schema = dataset.data->schema();
  const uint32_t domain = schema.attribute(0).domain_size();
  auto box = [&](double lo_frac, double width_frac, double minsupp,
                 double minconf) {
    LocalizedQuery query;
    const auto width = std::max<uint32_t>(
        1, static_cast<uint32_t>(width_frac * domain + 0.5));
    auto lo = static_cast<uint32_t>(lo_frac * domain);
    lo = std::min(lo, domain - width);
    query.ranges = {
        {0, static_cast<ValueId>(lo), static_cast<ValueId>(lo + width - 1)}};
    query.minsupp = minsupp;
    query.minconf = minconf;
    return query;
  };
  const double minsupp = dataset.minsupps.back();
  const double minconf = dataset.minconf;

  Workload drill{"drill-down", {}};
  for (double width : {0.5, 0.4, 0.3, 0.2, 0.1}) {
    drill.queries.push_back(box(0.0, width, minsupp, minconf));
  }

  Workload sweep{"threshold-sweep", {}};
  for (double ms : dataset.minsupps) {
    for (double mc : {minconf, minconf + 0.05}) {
      sweep.queries.push_back(box(0.0, 0.3, ms, mc));
    }
  }

  Workload neighbours{"neighbouring-box", {}};
  neighbours.queries.push_back(box(0.0, 0.6, minsupp, minconf));  // seed
  for (double lo : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    neighbours.queries.push_back(box(lo, 0.15, minsupp, minconf));
  }

  // Overlap-shaped session: adjacent slabs first, then their union (no
  // single resident box contains it, so it is scanned cold) and two boxes
  // the union then contains (a trimmed prefix and an inner window).
  Workload overlap{"overlap-drill", {}};
  overlap.queries.push_back(box(0.0, 0.25, minsupp, minconf));
  overlap.queries.push_back(box(0.25, 0.25, minsupp, minconf));
  overlap.queries.push_back(box(0.0, 0.5, minsupp, minconf));   // union
  overlap.queries.push_back(box(0.0, 0.35, minsupp, minconf));  // trim
  overlap.queries.push_back(box(0.1, 0.4, minsupp, minconf));   // inner
  return {std::move(drill), std::move(sweep), std::move(neighbours),
          std::move(overlap)};
}

std::unique_ptr<Engine> BuildCachedEngine(const BenchDataset& dataset) {
  EngineOptions options;
  options.index.primary_support = dataset.primary_support;
  options.calibrate = true;
  options.num_threads = ThreadsFromEnv();
  options.cache = QueryCacheOptions{};  // the default budget
  auto engine = Engine::Build(*dataset.data, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine.value());
}

// Wall time of one sequential pass over the workload (optimizer-picked
// plans, exactly the session an analyst would run).
double RunPass(const Engine& engine, const std::vector<LocalizedQuery>& qs) {
  Timer timer;
  for (const LocalizedQuery& query : qs) {
    auto result = engine.Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
  }
  return timer.ElapsedMillis();
}

void AppendJson(const BenchDataset& dataset, const Engine& warm,
                const char* workload, size_t queries, double cold_ms,
                double warm_ms, double hot_ms) {
  std::string path = JsonSinkPath();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH json sink %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  const CacheTelemetry t = warm.cache()->telemetry();
  std::fprintf(
      out,
      "{\"dataset\":\"%s\",\"figure\":\"session_cache\",\"records\":%u,"
      "\"scale\":%g,\"num_threads\":%u,"
      "\"workload\":\"%s\",\"queries\":%zu,"
      "\"cold_ms\":%.3f,\"warm_ms\":%.3f,\"hot_ms\":%.3f,"
      "\"warm_speedup\":%.2f,\"hot_speedup\":%.2f,"
      "\"cache\":{\"exact\":%llu,\"containment\":%llu,"
      "\"memo\":%llu,\"misses\":%llu,\"bytes\":%llu}}\n",
      dataset.name.c_str(), dataset.data->num_records(), ScaleFromEnv(),
      warm.pool() != nullptr
          ? static_cast<unsigned>(warm.pool()->parallelism())
          : 1u,
      workload, queries, cold_ms,
      warm_ms, hot_ms, cold_ms / std::max(warm_ms, 1e-9),
      cold_ms / std::max(hot_ms, 1e-9),
      static_cast<unsigned long long>(t.hits_exact),
      static_cast<unsigned long long>(t.hits_containment),
      static_cast<unsigned long long>(t.hits_count_memo),
      static_cast<unsigned long long>(t.misses),
      static_cast<unsigned long long>(t.bytes));
  std::fclose(out);
}

void AppendScaleJson(const BenchDataset& dataset, const Engine& restored,
                     const char* workload, size_t queries, double cold_ms,
                     double mmap_warm_ms, double hot_ms) {
  std::string path = JsonSinkPath();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH json sink %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  const CacheTelemetry t = restored.cache()->telemetry();
  std::fprintf(
      out,
      "{\"dataset\":\"%s\",\"figure\":\"cache_scale\",\"records\":%u,"
      "\"scale\":%g,\"num_threads\":%u,"
      "\"workload\":\"%s\",\"queries\":%zu,"
      "\"cold_ms\":%.3f,\"mmap_warm_ms\":%.3f,\"hot_ms\":%.3f,"
      "\"mmap_warm_speedup\":%.2f,\"hot_speedup\":%.2f,"
      "\"cache\":{\"exact\":%llu,\"containment\":%llu,"
      "\"memo\":%llu,\"misses\":%llu,\"admitrej\":%llu,\"bytes\":%llu}}\n",
      dataset.name.c_str(), dataset.data->num_records(), ScaleFromEnv(),
      restored.pool() != nullptr
          ? static_cast<unsigned>(restored.pool()->parallelism())
          : 1u,
      workload, queries,
      cold_ms, mmap_warm_ms, hot_ms, cold_ms / std::max(mmap_warm_ms, 1e-9),
      cold_ms / std::max(hot_ms, 1e-9),
      static_cast<unsigned long long>(t.hits_exact),
      static_cast<unsigned long long>(t.hits_containment),
      static_cast<unsigned long long>(t.hits_count_memo),
      static_cast<unsigned long long>(t.misses),
      static_cast<unsigned long long>(t.admission_rejects),
      static_cast<unsigned long long>(t.bytes));
  std::fclose(out);
}

// PUMSB-scale warm-restart figure: a session populates the cache, the v4
// file is persisted, and a fresh engine (the "restarted process") loads it
// before replaying the session. Three timings per workload: a cache-less
// engine (cold), the restored engine's first replay (mmap-warm), and its
// steady state (hot). Gated on full scale — at smoke scales the PUMSB
// analog is too small for the restart cost to mean anything.
void RunScaleFigure() {
  if (ScaleFromEnv() < 1.0) {
    std::printf(
        "\ncache_scale: skipped (COLARM_BENCH_SCALE=%g < 1; PUMSB-scale "
        "warm-restart rows need the full-size analog)\n",
        ScaleFromEnv());
    return;
  }
  BenchDataset dataset = MakePumsb();
  std::printf(
      "\nWarm restart at scale — %s analog (m=%u, primary=%g%%), cold vs "
      "mmap-warm vs hot\n\n",
      dataset.name.c_str(), dataset.data->num_records(),
      dataset.primary_support * 100.0);

  auto cold_engine = BuildEngine(dataset);
  const std::string cache_path = "BENCH_session.ccache";
  std::printf("%-18s %8s %10s %12s %10s %8s %8s\n", "workload", "queries",
              "cold ms", "mmapwarm ms", "hot ms", "warm x", "hot x");
  for (Workload& workload : MakeWorkloads(dataset)) {
    constexpr int kReps = 3;
    double cold_ms = 1e100;
    for (int r = 0; r < kReps; ++r) {
      cold_ms = std::min(cold_ms, RunPass(*cold_engine, workload.queries));
    }

    // Populate a session cache and persist it — this is the "previous
    // process" whose work the restart inherits.
    auto first_engine = BuildCachedEngine(dataset);
    RunPass(*first_engine, workload.queries);
    Status saved = SaveQueryCache(*first_engine->cache(),
                                  first_engine->index(), cache_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cache save failed: %s\n",
                   saved.ToString().c_str());
      std::abort();
    }
    first_engine.reset();

    auto restored = BuildCachedEngine(dataset);
    Status loaded =
        LoadQueryCache(restored->index(), cache_path, restored->cache());
    if (!loaded.ok()) {
      std::fprintf(stderr, "cache load failed: %s\n",
                   loaded.ToString().c_str());
      std::abort();
    }
    const double mmap_warm_ms = RunPass(*restored, workload.queries);
    double hot_ms = 1e100;
    for (int r = 0; r < kReps; ++r) {
      hot_ms = std::min(hot_ms, RunPass(*restored, workload.queries));
    }
    std::printf("%-18s %8zu %10.2f %12.2f %10.2f %7.1fx %7.1fx\n",
                workload.name, workload.queries.size(), cold_ms,
                mmap_warm_ms, hot_ms, cold_ms / std::max(mmap_warm_ms, 1e-9),
                cold_ms / std::max(hot_ms, 1e-9));
    AppendScaleJson(dataset, *restored, workload.name,
                    workload.queries.size(), cold_ms, mmap_warm_ms, hot_ms);
  }
  std::remove(cache_path.c_str());
}

int Main() {
  BenchDataset dataset = MakeChess();
  std::printf(
      "Session cache — %s analog (m=%u, primary=%g%%), cold vs warm\n\n",
      dataset.name.c_str(), dataset.data->num_records(),
      dataset.primary_support * 100.0);

  auto cold_engine = BuildEngine(dataset);
  std::printf("%-18s %8s %10s %10s %10s %8s %8s\n", "workload", "queries",
              "cold ms", "warm ms", "hot ms", "warm x", "hot x");
  for (Workload& workload : MakeWorkloads(dataset)) {
    // Fresh cache per workload so the reuse pattern is the workload's own.
    auto warm_engine = BuildCachedEngine(dataset);
    constexpr int kReps = 3;
    double cold_ms = 1e100;
    for (int r = 0; r < kReps; ++r) {
      cold_ms = std::min(cold_ms, RunPass(*cold_engine, workload.queries));
    }
    const double warm_ms = RunPass(*warm_engine, workload.queries);
    double hot_ms = 1e100;
    for (int r = 0; r < kReps; ++r) {
      hot_ms = std::min(hot_ms, RunPass(*warm_engine, workload.queries));
    }
    std::printf("%-18s %8zu %10.2f %10.2f %10.2f %7.1fx %7.1fx\n",
                workload.name, workload.queries.size(), cold_ms, warm_ms,
                hot_ms, cold_ms / std::max(warm_ms, 1e-9),
                cold_ms / std::max(hot_ms, 1e-9));
    AppendJson(dataset, *warm_engine, workload.name, workload.queries.size(),
               cold_ms, warm_ms, hot_ms);
  }
  RunScaleFigure();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace colarm

int main() { return colarm::bench::Main(); }
