#ifndef COLARM_MIP_MIP_INDEX_H_
#define COLARM_MIP_MIP_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "bitmap/vertical_index.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/histogram.h"
#include "ittree/ittree.h"
#include "mining/charm.h"
#include "mip/index_stats.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"

namespace colarm {

/// One Multidimensional Itemset Partition: a prestored closed frequent
/// itemset together with its global support count and the *tight* bounding
/// box of its supporting records (per attribute: the [min, max] value over
/// records containing the itemset). Tight boxes are what make Lemma 4.5
/// sound: box ⊆ DQ implies every supporting record is in DQ, so the local
/// support equals the global one.
struct Mip {
  Itemset items;
  uint32_t global_count = 0;
  Rect bbox;
};

struct MipIndexOptions {
  /// Primary support threshold (fraction of |D|) used for the offline
  /// CHARM run; itemsets below it are not prestored (POQM contract).
  double primary_support = 0.6;
  RTree::Options rtree;
  /// STR packing vs. packing in itemset-lexicographic order.
  bool use_str_packing = true;

  /// Full-struct equality: every field shapes the built index, so cache
  /// compatibility (core/engine.cc) must compare all of them.
  friend bool operator==(const MipIndexOptions&,
                         const MipIndexOptions&) = default;
};

/// The paper's two-level MIP-index: a Supported R-tree over MIP bounding
/// boxes (with global support counts) plus a closed IT-tree over the items.
/// Built offline once; shared by every online plan.
class MipIndex {
 public:
  /// Mines CFIs at the primary threshold and assembles both index levels.
  /// The dataset must outlive the index. When `pool` can run concurrently,
  /// the CHARM prefix branches, their bounding-box derivations, and the
  /// R-tree bulk-load sort are parallelized; the resulting index is
  /// byte-identical to a sequential build.
  static Result<MipIndex> Build(const Dataset& dataset,
                                const MipIndexOptions& options,
                                ThreadPool* pool = nullptr);

  const Dataset& dataset() const { return *dataset_; }
  const MipIndexOptions& options() const { return options_; }
  uint32_t primary_count() const { return primary_count_; }

  uint32_t num_mips() const { return static_cast<uint32_t>(mips_.size()); }
  const Mip& mip(uint32_t id) const { return mips_[id]; }
  const std::vector<Mip>& mips() const { return mips_; }

  const RTree& rtree() const { return *rtree_; }
  const ITTree& ittree() const { return ittree_; }
  const IndexStats& stats() const { return stats_; }
  const DatasetHistograms& histograms() const { return histograms_; }

  /// The vertical bitmap form of the dataset, built (or cache-loaded)
  /// alongside the index; the dense-DQ record-level routes run on it.
  const VerticalIndex& vertical() const { return vertical_; }

  /// Global support count of an arbitrary itemset via the closed-superset
  /// property; 0 if the itemset is below the primary threshold.
  uint32_t GlobalCount(std::span<const ItemId> items) const {
    return ittree_.MaxSupersetCount(items);
  }

 private:
  friend Result<MipIndex> LoadMipIndex(const Dataset& dataset,
                                       const std::string& path);

  MipIndex() = default;

  /// Assembles both index levels and the statistics from a ready MIP
  /// array (shared by Build and the deserializer). A non-empty `vertical`
  /// (the cache loader's validated bitmaps) is adopted as-is; otherwise
  /// the vertical index is rebuilt from the dataset on `pool`.
  static MipIndex Assemble(const Dataset& dataset,
                           const MipIndexOptions& options,
                           uint32_t primary_count, std::vector<Mip> mips,
                           ThreadPool* pool = nullptr,
                           VerticalIndex vertical = VerticalIndex());

  const Dataset* dataset_ = nullptr;
  MipIndexOptions options_;
  uint32_t primary_count_ = 0;
  std::vector<Mip> mips_;
  std::unique_ptr<RTree> rtree_;
  ITTree ittree_;
  IndexStats stats_;
  DatasetHistograms histograms_;
  VerticalIndex vertical_;
};

/// Computes the tight bounding box of a tidset (exposed for tests).
Rect TightBoundingBox(const Dataset& dataset, std::span<const ItemId> items,
                      std::span<const Tid> tids);

}  // namespace colarm

#endif  // COLARM_MIP_MIP_INDEX_H_
