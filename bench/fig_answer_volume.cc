// Answer volume: what ordering and printing a large answer costs next to
// producing it. For three queries with large answers (chess analog at DQ
// 1% and 10%, PUMSB analog at DQ 1%), each under the optimizer's pick at
// the first minsupp of its paper grid, reports the best of 5 runs of:
//
//   plan stages   select + search + eliminate + verify + mine timers
//   canonicalize  total_ms minus the stage timers (ExecutePlan's final
//                 Canonicalize() and bookkeeping)
//   render        FormatRules over the whole answer
//
// plus the rule count and the rendered text's size. One JSON line per
// query goes to the COLARM_BENCH_JSON sink (default BENCH_plans.json).
//
//   COLARM_BENCH_THREADS=1 ./build/bench/fig_answer_volume
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/cpu_features.h"
#include "common/timer.h"
#include "core/explain.h"
#include "harness.h"

namespace colarm {
namespace bench {
namespace {

constexpr int kRuns = 5;

struct VolumeRow {
  PlanKind plan = PlanKind::kARM;
  size_t rules = 0;
  size_t text_bytes = 0;
  double stages_ms = std::numeric_limits<double>::infinity();
  double canonicalize_ms = std::numeric_limits<double>::infinity();
  double render_ms = std::numeric_limits<double>::infinity();
};

VolumeRow Measure(const Engine& engine, const LocalizedQuery& query) {
  VolumeRow row;
  const Schema& schema = engine.index().dataset().schema();
  for (int run = 0; run < kRuns; ++run) {
    auto result = engine.Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    const PlanStats& s = result->stats;
    const double stages = s.select_ms + s.search_ms + s.eliminate_ms +
                          s.verify_ms + s.mine_ms;
    Timer render_timer;
    const std::string text = FormatRules(schema, result->rules);
    const double render_ms = render_timer.ElapsedMillis();
    row.plan = result->plan_used;
    row.rules = result->rules.rules.size();
    row.text_bytes = text.size();
    row.stages_ms = std::min(row.stages_ms, stages);
    row.canonicalize_ms = std::min(row.canonicalize_ms, s.total_ms - stages);
    row.render_ms = std::min(row.render_ms, render_ms);
  }
  return row;
}

void AppendRowJson(const BenchDataset& dataset, const Engine& engine,
                   double dq, double minsupp, const VolumeRow& row) {
  const std::string path = JsonSinkPath();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH json sink %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  std::fprintf(
      out,
      "{\"bench\":\"answer_volume\",\"dataset\":\"%s\",\"records\":%u,"
      "\"scale\":%g,\"num_threads\":%u,\"simd\":\"%s\",\"dq\":%g,"
      "\"minsupp\":%g,\"minconf\":%g,\"plan\":\"%s\",\"rules\":%zu,"
      "\"stages_ms\":%.3f,\"canonicalize_ms\":%.3f,\"render_ms\":%.3f,"
      "\"text_bytes\":%zu,\"runs\":%d}\n",
      dataset.name.c_str(), dataset.data->num_records(), ScaleFromEnv(),
      engine.pool() != nullptr
          ? static_cast<unsigned>(engine.pool()->parallelism())
          : 1u,
      SimdLevelName(ActiveSimdLevel()), dq, minsupp, dataset.minconf,
      PlanKindName(row.plan), row.rules, row.stages_ms, row.canonicalize_ms,
      row.render_ms, row.text_bytes, kRuns);
  std::fclose(out);
}

void Run(const BenchDataset& dataset, std::initializer_list<double> dqs) {
  auto engine = BuildEngine(dataset);
  const double minsupp = dataset.minsupps.front();
  for (double dq : dqs) {
    const LocalizedQuery query = MakeQueries(*dataset.data, dq, minsupp,
                                             dataset.minconf,
                                             /*placements=*/1)
                                     .front();
    const VolumeRow row = Measure(*engine, query);
    AppendRowJson(dataset, *engine, dq, minsupp, row);
    std::printf("%-13s %5s %8s %-8s %8zu %10.2f %12.2f %9.2f %10.2f\n",
                dataset.name.c_str(), FractionLabel(dq).c_str(),
                FractionLabel(minsupp).c_str(), PlanKindName(row.plan),
                row.rules, row.stages_ms, row.canonicalize_ms, row.render_ms,
                row.text_bytes / 1e6);
  }
}

}  // namespace
}  // namespace bench
}  // namespace colarm

int main() {
  using namespace colarm::bench;
  std::printf("Answer volume (best of %d runs, ms)\n", kRuns);
  std::printf("%-13s %5s %8s %-8s %8s %10s %12s %9s %10s\n", "dataset", "DQ",
              "minsupp", "plan", "rules", "stages", "canonicalize",
              "render", "text MB");
  Run(MakeChess(), {0.01, 0.10});
  Run(MakePumsb(), {0.01});
  return 0;
}
