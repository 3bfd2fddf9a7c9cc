// Micro-benchmarks of the online plan operators (the ablation behind the
// plan cost model): SEARCH vs SUPPORTED-SEARCH, ELIMINATE, the fused
// SUPPORTED-VERIFY, and full plan executions on one mid-size scenario.
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

  static const Env& Get() {
    static Env* env = [] {
      auto* e = new Env();
      SyntheticConfig config = ChessLikeConfig(0.5);
      e->data = std::make_unique<Dataset>(GenerateSynthetic(config).value());
      EngineOptions options;
      options.index.primary_support = 0.6;
      options.calibrate = false;
      e->engine = std::move(Engine::Build(*e->data, options).value());
      e->query.ranges = {{0, 10, 39}};  // 30% of the region domain
      e->query.minsupp = 0.8;
      e->query.minconf = 0.85;
      return e;
    }();
    return *env;
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

void BM_Eliminate(benchmark::State& state) {
  const Env& env = Env::Get();
  PlanContext ctx(env.engine->index(), env.query, RuleGenOptions{},
                  OpSelect(env.engine->index(), env.query));
  CandidateSet cands = OpSearch(&ctx);
  std::vector<uint32_t> all = cands.contained;
  all.insert(all.end(), cands.overlapped.begin(), cands.overlapped.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(OpEliminate(&ctx, all).size());
  }
}
BENCHMARK(BM_Eliminate);

void BM_SupportedVerify(benchmark::State& state) {
  const Env& env = Env::Get();
  PlanContext ctx(env.engine->index(), env.query, RuleGenOptions{},
                  OpSelect(env.engine->index(), env.query));
  CandidateSet cands = OpSupportedSearch(&ctx);
  std::vector<uint32_t> all = cands.contained;
  all.insert(all.end(), cands.overlapped.begin(), cands.overlapped.end());
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
