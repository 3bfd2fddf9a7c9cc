// Micro-benchmarks of the online plan operators (the ablation behind the
// plan cost model): SEARCH vs SUPPORTED-SEARCH, ELIMINATE, the fused
// SUPPORTED-VERIFY, and full plan executions on one mid-size scenario;
// ELIMINATE also on a cold-mine-shaped box of the full PUMSB analog. The
// operator rows build the focal subset's bitmap the way the plan driver
// does, so they time the record-level route execution takes.
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "data/synthetic.h"
#include "plans/operators.h"

namespace colarm {
namespace {

struct Env {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Engine> engine;
  LocalizedQuery query;

  static Env* Make(const SyntheticConfig& config, double primary) {
    auto* e = new Env();
    e->data = std::make_unique<Dataset>(GenerateSynthetic(config).value());
    EngineOptions options;
    options.index.primary_support = primary;
    options.calibrate = false;
    e->engine = std::move(Engine::Build(*e->data, options).value());
    return e;
  }

  static const Env& Get() {
    static Env* env = [] {
      Env* e = Make(ChessLikeConfig(0.5), 0.6);
      e->query.ranges = {{0, 10, 39}};  // 30% of the region domain
      e->query.minsupp = 0.8;
      e->query.minconf = 0.85;
      return e;
    }();
    return *env;
  }

  // The server benchmark's cold-mine shape: 15 region values of the full
  // PUMSB analog at minsupp 90%, which every MIP's box overlaps.
  static const Env& ColdMine() {
    static Env* env = [] {
      Env* e = Make(PumsbLikeConfig(1.0), 0.8);
      e->query.ranges = {{0, 30, 44}};
      e->query.minsupp = 0.9;
      e->query.minconf = 0.85;
      return e;
    }();
    return *env;
  }

  // A plan context past SELECT, with DQ's bitmap when DQ is dense.
  PlanContext Context() const {
    PlanContext ctx(engine->index(), query, RuleGenOptions{},
                    OpSelect(engine->index(), query));
    ctx.AdoptDqBitmap();
    return ctx;
  }
};

void BM_Search(benchmark::State& state) {
  const Env& env = Env::Get();
  for (auto _ : state) {
    PlanContext ctx(env.engine->index(), env.query, RuleGenOptions{},
                    OpSelect(env.engine->index(), env.query));
    CandidateSet cands = OpSearch(&ctx);
    benchmark::DoNotOptimize(cands.total());
  }
}
BENCHMARK(BM_Search);

void BM_SupportedSearch(benchmark::State& state) {
  const Env& env = Env::Get();
  for (auto _ : state) {
    PlanContext ctx(env.engine->index(), env.query, RuleGenOptions{},
                    OpSelect(env.engine->index(), env.query));
    CandidateSet cands = OpSupportedSearch(&ctx);
    benchmark::DoNotOptimize(cands.total());
  }
}
BENCHMARK(BM_SupportedSearch);

// Arg 0: the chess scenario; arg 1: the cold-mine box on PUMSB.
void BM_Eliminate(benchmark::State& state) {
  const Env& env = state.range(0) == 0 ? Env::Get() : Env::ColdMine();
  state.SetLabel(state.range(0) == 0 ? "chess" : "pumsb-cold-mine");
  PlanContext ctx = env.Context();
  const Bitmap all = OpSearch(&ctx).All();
  for (auto _ : state) {
    benchmark::DoNotOptimize(OpEliminate(&ctx, all).size());
  }
}
BENCHMARK(BM_Eliminate)->Arg(0)->Arg(1);

void BM_SupportedVerify(benchmark::State& state) {
  const Env& env = Env::Get();
  PlanContext ctx = env.Context();
  const Bitmap all = OpSupportedSearch(&ctx).All();
  for (auto _ : state) {
    RuleSet rules;
    OpSupportedVerify(&ctx, all, &rules);
    benchmark::DoNotOptimize(rules.rules.size());
  }
}
BENCHMARK(BM_SupportedVerify);

void BM_FullPlan(benchmark::State& state) {
  const Env& env = Env::Get();
  const PlanKind kind = static_cast<PlanKind>(state.range(0));
  state.SetLabel(PlanKindName(kind));
  for (auto _ : state) {
    auto result = env.engine->ExecuteWithPlan(env.query, kind);
    benchmark::DoNotOptimize(result.value().rules.rules.size());
  }
}
BENCHMARK(BM_FullPlan)->DenseRange(0, 5);

// Multi-query ablation: an exploration session of 12 queries over 3
// focal boxes, executed naively vs as one Engine::ExecuteBatch (shared
// subset materializations + duplicate-result reuse).
std::vector<LocalizedQuery> SessionQueries() {
  std::vector<LocalizedQuery> queries;
  for (ValueId lo : {0, 25, 60}) {
    for (double minsupp : {0.75, 0.8, 0.85, 0.8}) {  // one duplicate per box
      LocalizedQuery query;
      query.ranges = {{0, lo, static_cast<ValueId>(lo + 19)}};
      query.minsupp = minsupp;
      query.minconf = 0.85;
      queries.push_back(query);
    }
  }
  return queries;
}

void BM_SessionNaive(benchmark::State& state) {
  const Env& env = Env::Get();
  auto queries = SessionQueries();
  for (auto _ : state) {
    size_t rules = 0;
    for (const LocalizedQuery& query : queries) {
      rules += env.engine->Execute(query).value().rules.rules.size();
    }
    benchmark::DoNotOptimize(rules);
  }
}
BENCHMARK(BM_SessionNaive);

void BM_SessionBatched(benchmark::State& state) {
  const Env& env = Env::Get();
  auto queries = SessionQueries();
  for (auto _ : state) {
    BatchResult batch = env.engine->ExecuteBatch(queries);
    benchmark::DoNotOptimize(batch.results.size());
  }
}
BENCHMARK(BM_SessionBatched);

void BM_OptimizerChoose(benchmark::State& state) {
  const Env& env = Env::Get();
  for (auto _ : state) {
    auto decision = env.engine->Explain(env.query);
    benchmark::DoNotOptimize(decision.value().chosen);
  }
}
BENCHMARK(BM_OptimizerChoose);

}  // namespace
}  // namespace colarm

BENCHMARK_MAIN();
