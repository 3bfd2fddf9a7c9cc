// Micro-benchmarks for the R-tree substrate: STR bulk loading, range
// search on the packed tree, and the supported filter's pruning effect
// (the ablation behind the SS-* plans).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "rtree/bulk_load.h"

namespace colarm {
namespace {

std::vector<RTreeEntry> MakeEntries(uint32_t count, uint32_t dims) {
  Rng rng(99);
  std::vector<RTreeEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Rect box = Rect::MakeEmpty(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      ValueId lo = static_cast<ValueId>(rng.Uniform(100));
      ValueId hi = static_cast<ValueId>(
          std::min<uint64_t>(99, lo + rng.Uniform(10)));
      box.SetInterval(d, lo, hi);
    }
    entries.push_back({box, i, static_cast<uint32_t>(rng.Uniform(10000))});
  }
  return entries;
}

Rect MakeQuery(uint32_t dims, ValueId lo, ValueId hi) {
  Rect box = Rect::MakeEmpty(dims);
  for (uint32_t d = 0; d < dims; ++d) box.SetInterval(d, lo, hi);
  return box;
}

void BM_RTreeBulkLoadSTR(benchmark::State& state) {
  const auto count = static_cast<uint32_t>(state.range(0));
  auto entries = MakeEntries(count, 4);
  for (auto _ : state) {
    RTree tree = BulkLoadSTR(4, entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_RTreeBulkLoadSTR)->Arg(1000)->Arg(10000);

void BM_RTreeSearchPacked(benchmark::State& state) {
  auto entries = MakeEntries(20000, 4);
  RTree tree = BulkLoadSTR(4, entries);
  Rect query = MakeQuery(4, 20, 60);
  for (auto _ : state) {
    size_t hits = 0;
    tree.Search(query, [&hits](uint32_t, uint32_t, bool) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeSearchPacked);

void BM_RTreeSupportedSearch(benchmark::State& state) {
  auto entries = MakeEntries(20000, 4);
  RTree tree = BulkLoadSTR(4, entries);
  Rect query = MakeQuery(4, 20, 60);
  const auto min_count = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    size_t hits = 0;
    tree.SearchSupported(query, min_count,
                         [&hits](uint32_t, uint32_t, bool) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeSupportedSearch)->Arg(0)->Arg(5000)->Arg(9500);

}  // namespace
}  // namespace colarm

BENCHMARK_MAIN();
