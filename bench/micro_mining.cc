// Micro-benchmarks of the mining substrate: CHARM on a synthetic relation
// at three thresholds, plus tidset intersection throughput — the
// primitive the cost model calibrates.
#include <benchmark/benchmark.h>

#include "data/synthetic.h"
#include "mining/charm.h"
#include "mining/tidset.h"

namespace colarm {
namespace {

Dataset MakeData() {
  SyntheticConfig config;
  config.seed = 321;
  config.num_records = 2000;
  config.num_attributes = 10;
  config.values_per_attribute = 4;
  config.region_domain = 20;
  config.dominant_prob = 0.8;
  config.group_coherence = 0.5;
  return GenerateSynthetic(config).value();
}

void BM_Charm(benchmark::State& state) {
  Dataset data = MakeData();
  VerticalView vertical(data);
  const uint32_t min_count = MinCount(state.range(0) / 100.0, 2000);
  for (auto _ : state) {
    size_t count = 0;
    MineCharm(vertical, min_count,
              [&count](const Itemset&, const Tidset&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Charm)->Arg(50)->Arg(30)->Arg(10);

void BM_TidsetIntersect(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  Tidset a;
  Tidset b;
  for (uint32_t i = 0; i < n; ++i) {
    a.push_back(2 * i);
    b.push_back(3 * i);
  }
  Tidset out;
  for (auto _ : state) {
    TidsetIntersectInto(a, b, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_TidsetIntersect)->Arg(1000)->Arg(100000);

// Size-skewed intersections: the small side stays at 64 elements while
// the big side grows. Beyond a 32x skew TidsetIntersectSize switches from
// the linear merge to galloping probes, turning the cost from
// O(|small| + |big|) into O(|small| log |big|) — CHARM hits this shape
// constantly once the IT-tree search deepens past fat roots.
void BM_TidsetIntersectSkewed(benchmark::State& state) {
  const auto big_n = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kSmallN = 64;
  Tidset small;
  Tidset big;
  for (uint32_t i = 0; i < big_n; ++i) big.push_back(i);
  for (uint32_t i = 0; i < kSmallN; ++i) {
    small.push_back(i * (big_n / kSmallN) + (i % 7));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TidsetIntersectSize(small, big));
  }
  state.SetItemsProcessed(state.iterations() * kSmallN);
}
BENCHMARK(BM_TidsetIntersectSkewed)
    ->Arg(1 << 11)   // 32x: the switch-over point
    ->Arg(1 << 14)   // 256x
    ->Arg(1 << 18);  // 4096x

}  // namespace
}  // namespace colarm

BENCHMARK_MAIN();
