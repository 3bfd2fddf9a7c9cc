#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "data/histogram.h"

namespace colarm {
namespace bench {

namespace {

// A benchmark knob that silently falls back to its default turns a typo
// into a wrong experiment: COLARM_BENCH_SCALE=O.5 quietly measuring the
// full dataset, or COLARM_BENCH_THREADS=1x publishing "sequential" numbers
// from a parallel run. Misparses are fatal; unset or empty means default.
[[noreturn]] void DieOnBadKnob(const char* name, const char* value,
                               const char* expected) {
  std::fprintf(stderr, "%s=\"%s\" is invalid: expected %s\n", name, value,
               expected);
  std::exit(2);
}

}  // namespace

double ScaleFromEnv() {
  const char* env = std::getenv("COLARM_BENCH_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  double scale = 0.0;
  if (!ParseDouble(env, &scale) || scale <= 0.0) {
    DieOnBadKnob("COLARM_BENCH_SCALE", env, "a number > 0");
  }
  return scale;
}

unsigned ThreadsFromEnv() {
  const char* env = std::getenv("COLARM_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  uint64_t threads = 0;
  if (!ParseUint64(env, &threads) ||
      threads > std::numeric_limits<unsigned>::max()) {
    DieOnBadKnob("COLARM_BENCH_THREADS", env,
                 "a non-negative integer (0 = hardware concurrency)");
  }
  return static_cast<unsigned>(threads);
}

std::string JsonSinkPath() {
  const char* env = std::getenv("COLARM_BENCH_JSON");
  return env != nullptr ? std::string(env) : std::string("BENCH_plans.json");
}

namespace {

// Resolved degree of parallelism an engine actually runs with.
unsigned EngineThreads(const Engine& engine) {
  return engine.pool() != nullptr
             ? static_cast<unsigned>(engine.pool()->parallelism())
             : 1u;
}

// One JSON line per scenario: everything needed to compare runs across
// thread counts and scales without scraping the human-readable tables.
void AppendScenarioJson(const BenchDataset& dataset, const Engine& engine,
                        double index_build_ms, double dq, double minsupp,
                        const ScenarioResult& r) {
  std::string path = JsonSinkPath();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH json sink %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  std::fprintf(out,
               "{\"dataset\":\"%s\",\"records\":%u,\"scale\":%g,"
               "\"num_threads\":%u,\"simd\":\"%s\","
               "\"index_build_ms\":%.3f,"
               "\"dq\":%g,\"minsupp\":%g,\"minconf\":%g,\"avg_ms\":{",
               dataset.name.c_str(), dataset.data->num_records(),
               ScaleFromEnv(), EngineThreads(engine),
               SimdLevelName(ActiveSimdLevel()), index_build_ms, dq,
               minsupp, dataset.minconf);
  for (size_t i = 0; i < kAllPlans.size(); ++i) {
    std::fprintf(out, "%s\"%s\":%.4f", i == 0 ? "" : ",",
                 PlanKindName(kAllPlans[i]), r.avg_ms[i]);
  }
  std::fprintf(out,
               "},\"optimizer_pick\":\"%s\",\"optimizer_pick_ms\":%.4f,"
               "\"measured_best\":\"%s\",\"measured_best_ms\":%.4f,"
               "\"rules\":%zu}\n",
               PlanKindName(r.optimizer_pick), r.optimizer_pick_ms,
               PlanKindName(r.measured_best), r.measured_best_ms, r.rules);
  std::fclose(out);
}

BenchDataset Make(const SyntheticConfig& config, double primary,
                  std::vector<double> minsupps) {
  BenchDataset dataset;
  dataset.name = config.name;
  auto generated = GenerateSynthetic(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", config.name.c_str(),
                 generated.status().ToString().c_str());
    std::abort();
  }
  dataset.data = std::make_unique<Dataset>(std::move(generated.value()));
  dataset.primary_support = primary;
  dataset.minsupps = std::move(minsupps);
  dataset.minconf = 0.85;
  return dataset;
}

}  // namespace

BenchDataset MakeChess() {
  // Paper: chess at primary support 60%, minsupp in {80, 85, 90}%.
  return Make(ChessLikeConfig(1.0 * ScaleFromEnv()), 0.60, {0.80, 0.85, 0.90});
}

BenchDataset MakeMushroom() {
  // Paper: mushroom at primary support 5%, minsupp in {70, 75, 80}%.
  return Make(MushroomLikeConfig(0.5 * ScaleFromEnv()), 0.05,
              {0.70, 0.75, 0.80});
}

BenchDataset MakePumsb() {
  // Paper: PUMSB at primary support 80%, minsupp in {85, 88, 91}%.
  return Make(PumsbLikeConfig(0.25 * ScaleFromEnv()), 0.80,
              {0.85, 0.88, 0.91});
}

std::unique_ptr<Engine> BuildEngine(const BenchDataset& dataset) {
  EngineOptions options;
  options.index.primary_support = dataset.primary_support;
  options.calibrate = true;
  options.num_threads = ThreadsFromEnv();
  auto engine = Engine::Build(*dataset.data, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine.value());
}

std::vector<LocalizedQuery> MakeQueries(const Dataset& data,
                                        double dq_fraction, double minsupp,
                                        double minconf, int placements) {
  const Schema& schema = data.schema();

  // Queries mix a predicate on the first *leaning* attribute (range and
  // item attributes share one pool, so this lets the R-tree filter prune
  // MIPs fixing the other value) with a region interval for fine-grained
  // size control. Datasets without a leaning attribute fall back to a pure
  // region interval.
  AttrId leaning_attr = 0;
  for (AttrId a = 1; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).name.rfind("lean", 0) == 0) {
      leaning_attr = a;
      break;
    }
  }

  double region_fraction = dq_fraction;
  std::optional<RangeSelection> leaning_range;
  if (leaning_attr != 0) {
    ValueHistogram hist(data, leaning_attr);
    double sel_v1 = hist.Selectivity(1, 1);
    double sel_v0 = hist.Selectivity(0, 0);
    if (dq_fraction <= sel_v1 && sel_v1 > 0) {
      leaning_range = RangeSelection{leaning_attr, 1, 1};
      region_fraction = dq_fraction / sel_v1;
    } else if (dq_fraction <= sel_v0 && sel_v0 > 0) {
      leaning_range = RangeSelection{leaning_attr, 0, 0};
      region_fraction = dq_fraction / sel_v0;
    }
  }

  const uint32_t domain = schema.attribute(0).domain_size();
  const auto width = std::min<uint32_t>(
      domain, std::max<uint32_t>(
                  1, static_cast<uint32_t>(region_fraction * domain + 0.5)));
  std::vector<LocalizedQuery> queries;
  for (int p = 0; p < placements; ++p) {
    // Deterministic offsets spread across the region domain.
    uint32_t max_lo = domain - width;
    uint32_t lo = placements <= 1 ? 0 : (max_lo * p) / (placements - 1);
    LocalizedQuery query;
    query.ranges = {{0, static_cast<ValueId>(lo),
                     static_cast<ValueId>(lo + width - 1)}};
    if (leaning_range.has_value()) query.ranges.push_back(*leaning_range);
    query.minsupp = minsupp;
    query.minconf = minconf;
    queries.push_back(std::move(query));
  }
  return queries;
}

namespace {

// Timed rounds per placement; round r starts at plan r, so the order
// rotates between rounds.
constexpr size_t kTimedRounds = 3;

QueryResult RunPlan(const Engine& engine, const LocalizedQuery& query,
                    PlanKind kind) {
  auto run = engine.ExecuteWithPlan(query, kind);
  if (!run.ok()) {
    std::fprintf(stderr, "plan %s failed: %s\n", PlanKindName(kind),
                 run.status().ToString().c_str());
    std::abort();
  }
  return std::move(run.value());
}

}  // namespace

ScenarioResult RunScenario(const Engine& engine, double dq_fraction,
                           double minsupp, double minconf, int placements) {
  ScenarioResult result;
  auto queries = MakeQueries(engine.index().dataset(), dq_fraction, minsupp,
                             minconf, placements);

  // Majority vote over placements for the optimizer's pick.
  int votes[6] = {0, 0, 0, 0, 0, 0};
  for (const LocalizedQuery& query : queries) {
    auto decision = engine.Explain(query);
    if (decision.ok()) {
      ++votes[static_cast<size_t>(decision->chosen)];
    }
    for (PlanKind kind : kAllPlans) {
      QueryResult warmup = RunPlan(engine, query, kind);
      if (kind == PlanKind::kSEV) result.rules = warmup.rules.rules.size();
    }
    std::vector<double> best(kAllPlans.size(),
                             std::numeric_limits<double>::infinity());
    for (size_t round = 0; round < kTimedRounds; ++round) {
      for (size_t i = 0; i < kAllPlans.size(); ++i) {
        const size_t p = (round + i) % kAllPlans.size();
        best[p] = std::min(best[p],
                           RunPlan(engine, query, kAllPlans[p]).stats.total_ms);
      }
    }
    for (size_t p = 0; p < kAllPlans.size(); ++p) result.avg_ms[p] += best[p];
  }
  for (double& ms : result.avg_ms) ms /= queries.size();

  int best_votes = -1;
  for (size_t i = 0; i < kAllPlans.size(); ++i) {
    if (votes[i] > best_votes) {
      best_votes = votes[i];
      result.optimizer_pick = kAllPlans[i];
    }
  }
  double best_ms = result.avg_ms[0];
  result.measured_best = kAllPlans[0];
  for (size_t i = 1; i < kAllPlans.size(); ++i) {
    if (result.avg_ms[i] < best_ms) {
      best_ms = result.avg_ms[i];
      result.measured_best = kAllPlans[i];
    }
  }
  result.measured_best_ms = best_ms;
  result.optimizer_pick_ms =
      result.avg_ms[static_cast<size_t>(result.optimizer_pick)];
  return result;
}

std::string FractionLabel(double fraction) {
  return StrFormat("%g%%", fraction * 100.0);
}

void RunPlanFigure(const BenchDataset& dataset, const char* figure_title) {
  std::printf("%s — %s analog (m=%u, primary=%g%%, minconf=%g%%)\n",
              figure_title, dataset.name.c_str(), dataset.data->num_records(),
              dataset.primary_support * 100.0, dataset.minconf * 100.0);
  Timer build_timer;
  auto engine = BuildEngine(dataset);
  const double index_build_ms = build_timer.ElapsedMillis();
  std::printf("MIP-index: %u MIPs, R-tree height %u (built in %.1f ms, %u thread%s)\n\n",
              engine->index().num_mips(), engine->index().rtree().height(),
              index_build_ms, EngineThreads(*engine),
              EngineThreads(*engine) == 1 ? "" : "s");

  for (double dq : kDqFractions) {
    std::printf("DQ = %s of D:\n", FractionLabel(dq).c_str());
    std::printf("  %-8s %10s %10s %10s %10s %10s %10s   %s\n", "minsupp",
                "S-E-V", "S-VS", "SS-E-V", "SS-VS", "SS-E-U-V", "ARM",
                "COLARM-pick");
    for (double minsupp : dataset.minsupps) {
      ScenarioResult r =
          RunScenario(*engine, dq, minsupp, dataset.minconf, /*placements=*/2);
      AppendScenarioJson(dataset, *engine, index_build_ms, dq, minsupp, r);
      std::printf(
          "  %-8s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f   %s%s\n",
          FractionLabel(minsupp).c_str(), r.avg_ms[0], r.avg_ms[1],
          r.avg_ms[2], r.avg_ms[3], r.avg_ms[4], r.avg_ms[5],
          PlanKindName(r.optimizer_pick),
          r.optimizer_pick == r.measured_best ? " (= measured best)" : "");
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace colarm
