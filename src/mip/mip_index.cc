#include "mip/mip_index.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"

namespace colarm {

Rect TightBoundingBox(const Dataset& dataset, std::span<const ItemId> items,
                      std::span<const Tid> tids) {
  const Schema& schema = dataset.schema();
  const uint32_t n = schema.num_attributes();
  Rect box = Rect::MakeEmpty(n);
  // Attributes fixed by the itemset contribute a degenerate interval.
  std::vector<bool> fixed(n, false);
  for (ItemId item : items) {
    AttrId a = schema.AttrOfItem(item);
    ValueId v = schema.ValueOfItem(item);
    box.SetInterval(a, v, v);
    fixed[a] = true;
  }
  // Remaining attributes: min/max over the supporting records, scanned
  // column-wise with early exit once the full domain is covered.
  for (AttrId a = 0; a < n; ++a) {
    if (fixed[a]) continue;
    const std::vector<ValueId>& column = dataset.Column(a);
    const ValueId domain_max =
        static_cast<ValueId>(schema.attribute(a).domain_size() - 1);
    ValueId lo = std::numeric_limits<ValueId>::max();
    ValueId hi = 0;
    for (Tid t : tids) {
      ValueId v = column[t];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      if (lo == 0 && hi == domain_max) break;
    }
    if (tids.empty()) {
      lo = 1;
      hi = 0;  // keep the empty-interval convention
    }
    box.SetInterval(a, lo, hi);
  }
  return box;
}

Result<MipIndex> MipIndex::Build(const Dataset& dataset,
                                 const MipIndexOptions& options,
                                 ThreadPool* pool) {
  if (dataset.num_records() == 0) {
    return Status::InvalidArgument("cannot index an empty dataset");
  }
  if (options.primary_support <= 0.0 || options.primary_support > 1.0) {
    return Status::InvalidArgument(
        StrFormat("primary_support %.3f out of (0, 1]",
                  options.primary_support));
  }

  const uint32_t primary_count =
      MinCount(options.primary_support, dataset.num_records());

  // Offline CHARM run at the primary threshold; each emitted CFI yields a
  // MIP (itemset + count + tight bbox). Tidsets are dropped immediately.
  std::vector<Mip> mips;
  VerticalView vertical(dataset);
  // At the primary threshold every kept tidset has >= primary_count tids;
  // when that clears the bitmap density bar (one tid per 64-bit word), the
  // hybrid miner's near-root intersections all run word-parallel, so it
  // wins outright. Below the bar the list miner avoids paying bitmap
  // conversions for tidsets that would immediately sparsify.
  const bool use_hybrid = IsDense(primary_count, dataset.num_records());
  if (IsParallel(pool)) {
    // Prefix branches mine concurrently; the tight bounding box — the
    // dominant per-CFI cost — is derived on the worker inside the map
    // callback, while emission (and thus MIP order) stays sequential.
    const CharmMapFn map = [&](const Itemset& items, const Tidset& tids) {
      return std::any(TightBoundingBox(dataset, items, tids));
    };
    const CharmEmitFn emit = [&](const Itemset& items, uint32_t count,
                                 std::any payload) {
      Mip mip;
      mip.items = items;
      mip.global_count = count;
      mip.bbox = std::move(*std::any_cast<Rect>(&payload));
      mips.push_back(std::move(mip));
    };
    if (use_hybrid) {
      MineCharmHybridParallel(vertical, dataset.num_records(), primary_count,
                              pool, map, emit);
    } else {
      MineCharmParallel(vertical, primary_count, pool, map, emit);
    }
  } else {
    const ClosedItemsetSink sink = [&](const Itemset& items,
                                       const Tidset& tids) {
      Mip mip;
      mip.items = items;
      mip.global_count = static_cast<uint32_t>(tids.size());
      mip.bbox = TightBoundingBox(dataset, items, tids);
      mips.push_back(std::move(mip));
    };
    if (use_hybrid) {
      MineCharmHybrid(vertical, dataset.num_records(), primary_count, sink);
    } else {
      MineCharm(vertical, primary_count, sink);
    }
  }
  return Assemble(dataset, options, primary_count, std::move(mips), pool);
}

MipIndex MipIndex::Assemble(const Dataset& dataset,
                            const MipIndexOptions& options,
                            uint32_t primary_count, std::vector<Mip> mips,
                            ThreadPool* pool, VerticalIndex vertical) {
  MipIndex index;
  index.dataset_ = &dataset;
  index.options_ = options;
  index.primary_count_ = primary_count;
  index.mips_ = std::move(mips);
  index.vertical_ = vertical.empty() ? VerticalIndex::Build(dataset, pool)
                                     : std::move(vertical);

  // Deterministic id order: lexicographic by itemset. This also clusters
  // similar bounding boxes for the packed R-tree build.
  std::sort(index.mips_.begin(), index.mips_.end(),
            [](const Mip& a, const Mip& b) { return a.items < b.items; });

  // Level 2: the closed IT-tree, laid out depth-first for ELIMINATE's
  // walk. Itemset order is the trie's depth-first order, so the MIPs
  // below each node hold contiguous ids. The itemsets are distinct: the
  // miners emit each closed itemset once, and the loader rejects repeats.
  for (const Mip& mip : index.mips_) {
    index.ittree_.Insert(mip.items, mip.global_count);
  }
  index.ittree_.NumberDepthFirst();

  // Level 1: the Supported R-tree over bounding boxes.
  std::vector<RTreeEntry> entries;
  entries.reserve(index.mips_.size());
  for (uint32_t id = 0; id < index.mips_.size(); ++id) {
    entries.push_back(
        {index.mips_[id].bbox, id, index.mips_[id].global_count});
  }
  const uint32_t dims = dataset.num_attributes();
  index.rtree_ = std::make_unique<RTree>(
      options.use_str_packing
          ? BulkLoadSTR(dims, std::move(entries), options.rtree, pool)
          : BulkLoadPacked(dims, std::move(entries), options.rtree));

  index.histograms_ = DatasetHistograms(dataset);
  index.stats_ = ComputeIndexStats(index);
  return index;
}

}  // namespace colarm
