#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>

namespace colarm {

/// Accesses RTree internals to assemble packed trees bottom-up.
class RTreeBuilder {
 public:
  static RTree Build(uint32_t dims, const std::vector<RTreeEntry>& entries,
                     RTree::Options options) {
    RTree tree(dims, options);
    if (entries.empty()) return tree;

    tree.nodes_.clear();

    // Leaf level: pack entries in order.
    std::vector<uint32_t> level;
    for (const auto& [begin, end] :
         ChunkBoundaries(entries.size(), options)) {
      level.push_back(tree.AddNode(
          /*leaf=*/true,
          std::span<const RTreeEntry>(entries).subspan(begin, end - begin)));
    }

    // Internal levels until a single root remains.
    uint32_t height = 1;
    std::vector<RTreeEntry> children;
    while (level.size() > 1) {
      std::vector<uint32_t> parents;
      for (const auto& [begin, end] : ChunkBoundaries(level.size(), options)) {
        children.clear();
        for (size_t i = begin; i < end; ++i) {
          children.push_back({tree.NodeMbr(level[i]), level[i],
                              tree.NodeMaxCount(level[i])});
        }
        parents.push_back(tree.AddNode(/*leaf=*/false, children));
      }
      level = std::move(parents);
      ++height;
    }

    tree.root_ = level[0];
    tree.mbr_ = tree.NodeMbr(tree.root_);
    tree.height_ = height;
    tree.size_ = static_cast<uint32_t>(entries.size());
    return tree;
  }

 private:
  // [begin, end) ranges of size <= max_entries; the final two chunks are
  // rebalanced so no chunk falls below min_entries (unless there is only
  // one chunk total).
  static std::vector<std::pair<size_t, size_t>> ChunkBoundaries(
      size_t total, const RTree::Options& options) {
    std::vector<std::pair<size_t, size_t>> chunks;
    const size_t cap = options.max_entries;
    size_t begin = 0;
    while (begin < total) {
      size_t end = std::min(begin + cap, total);
      chunks.emplace_back(begin, end);
      begin = end;
    }
    if (chunks.size() >= 2) {
      auto& last = chunks.back();
      auto& prev = chunks[chunks.size() - 2];
      if (last.second - last.first < options.min_entries) {
        size_t combined_begin = prev.first;
        size_t combined_end = last.second;
        size_t half = (combined_end - combined_begin + 1) / 2;
        prev = {combined_begin, combined_begin + half};
        last = {combined_begin + half, combined_end};
      }
    }
    return chunks;
  }
};

namespace {

double Center(const Rect& box, uint32_t d) {
  return (static_cast<double>(box.lo(d)) + box.hi(d)) / 2.0;
}

// Total order for the tile sort: center along `d`, ties broken by entry id.
// A total order makes the sorted sequence unique, so the sequential
// std::sort and the parallel chunked sort-merge below produce identical
// trees — the determinism contract of the parallel index build.
bool TileLess(const RTreeEntry& a, const RTreeEntry& b, uint32_t d) {
  const double ca = Center(a.box, d);
  const double cb = Center(b.box, d);
  if (ca != cb) return ca < cb;
  return a.id < b.id;
}

// Entry count below which a parallel sort is not worth the merge passes.
constexpr size_t kParallelSortThreshold = 2048;

// Sorts entries[lo, hi) by TileLess along `d`, on the pool when the range
// is large enough: chunk-sort then fold with inplace_merge. The comparator
// is a total order, so the result equals the sequential sort's.
void TileSort(std::vector<RTreeEntry>& entries, size_t lo, size_t hi,
              uint32_t d, ThreadPool* pool) {
  auto less = [d](const RTreeEntry& a, const RTreeEntry& b) {
    return TileLess(a, b, d);
  };
  const size_t count = hi - lo;
  if (!IsParallel(pool) || count < kParallelSortThreshold) {
    std::sort(entries.begin() + lo, entries.begin() + hi, less);
    return;
  }

  const size_t chunks = std::min<size_t>(pool->parallelism(), count);
  std::vector<std::pair<size_t, size_t>> runs(chunks);
  ParallelChunks(pool, count, chunks,
                 [&](size_t chunk, size_t begin, size_t end) {
                   runs[chunk] = {lo + begin, lo + end};
                   std::sort(entries.begin() + lo + begin,
                             entries.begin() + lo + end, less);
                 });
  // Fold adjacent runs; each pass merges disjoint pairs in parallel.
  while (runs.size() > 1) {
    std::vector<std::pair<size_t, size_t>> merged((runs.size() + 1) / 2);
    ParallelFor(pool, merged.size(), [&](size_t pair) {
      const size_t left = 2 * pair;
      if (left + 1 < runs.size()) {
        std::inplace_merge(entries.begin() + runs[left].first,
                           entries.begin() + runs[left].second,
                           entries.begin() + runs[left + 1].second, less);
        merged[pair] = {runs[left].first, runs[left + 1].second};
      } else {
        merged[pair] = runs[left];
      }
    });
    runs = std::move(merged);
  }
}

// Recursive Sort-Tile step: order entries[lo, hi) by dimension `d`, slice
// into vertical slabs, and recurse into each slab with the next dimension.
void StrTile(std::vector<RTreeEntry>& entries, size_t lo, size_t hi,
             uint32_t d, uint32_t dims, uint32_t node_cap, ThreadPool* pool) {
  const size_t count = hi - lo;
  TileSort(entries, lo, hi, d, pool);
  if (count <= node_cap || d + 1 >= dims) return;
  const double leaves = std::ceil(static_cast<double>(count) / node_cap);
  const auto slabs = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::pow(leaves, 1.0 / (dims - d)))));
  const size_t slab_size = (count + slabs - 1) / slabs;
  // Slabs are disjoint ranges; recurse over them concurrently.
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t begin = lo; begin < hi; begin += slab_size) {
    ranges.emplace_back(begin, std::min(begin + slab_size, hi));
  }
  ParallelFor(pool, ranges.size(), [&](size_t s) {
    StrTile(entries, ranges[s].first, ranges[s].second, d + 1, dims,
            node_cap, pool);
  });
}

}  // namespace

RTree BulkLoadSTR(uint32_t dims, std::vector<RTreeEntry> entries,
                  RTree::Options options, ThreadPool* pool) {
  if (!entries.empty()) {
    StrTile(entries, 0, entries.size(), 0, dims, options.max_entries, pool);
  }
  return RTreeBuilder::Build(dims, entries, options);
}

RTree BulkLoadPacked(uint32_t dims, std::vector<RTreeEntry> entries,
                     RTree::Options options) {
  return RTreeBuilder::Build(dims, entries, options);
}

}  // namespace colarm
