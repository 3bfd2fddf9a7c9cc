// Micro-benchmarks for the R-tree substrate: STR bulk loading, range
// search on the packed tree, the supported filter's pruning effect (the
// ablation behind the SS-* plans), and SEARCH on the drill-down shape of a
// MIP-index, where the query narrows one dimension of forty.
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
    Bitmap hits(tree.size());
    tree.Search(query, &hits, &hits);
    benchmark::DoNotOptimize(hits.words());
  }
}
BENCHMARK(BM_RTreeSearchPacked);

void BM_RTreeSupportedSearch(benchmark::State& state) {
  auto entries = MakeEntries(20000, 4);
  RTree tree = BulkLoadSTR(4, entries);
  Rect query = MakeQuery(4, 20, 60);
  const auto min_count = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Bitmap hits(tree.size());
    tree.SearchSupported(query, min_count, &hits, &hits);
    benchmark::DoNotOptimize(hits.words());
  }
}
BENCHMARK(BM_RTreeSupportedSearch)->Arg(0)->Arg(5000)->Arg(9500);

// The cold-mine shape: a packed 40-dimension tree of 13k boxes that all
// span the region axis (the last dimension, 30 values), and a query that
// narrows that axis only. The search tests one active dimension per node;
// every box overlaps and none lies inside, so it visits every node.
void BM_RTreeSearchNarrowed(benchmark::State& state) {
  constexpr uint32_t kDims = 40;
  constexpr uint32_t kAxis = kDims - 1;
  Rng rng(7);
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < 13000; ++i) {
    Rect box = Rect::MakeEmpty(kDims);
    for (uint32_t d = 0; d < kAxis; ++d) {
      const auto lo = static_cast<ValueId>(rng.Uniform(4));
      box.SetInterval(d, lo, static_cast<ValueId>(lo + rng.Uniform(4 - lo)));
    }
    box.SetInterval(kAxis, 0, 29);
    entries.push_back({box, i, static_cast<uint32_t>(rng.Uniform(10000))});
  }
  RTree tree = BulkLoadPacked(kDims, std::move(entries));
  Rect query = MakeQuery(kDims, 0, 3);
  query.SetInterval(kAxis, 10, 19);
  for (auto _ : state) {
    Bitmap contained(tree.size());
    Bitmap overlapped(tree.size());
    tree.Search(query, &contained, &overlapped);
    benchmark::DoNotOptimize(overlapped.words());
  }
  state.SetItemsProcessed(state.iterations() * tree.size());
}
BENCHMARK(BM_RTreeSearchNarrowed);

}  // namespace
}  // namespace colarm

BENCHMARK_MAIN();
