#include "cost/calibration.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/timer.h"
#include "mining/itemset.h"
#include "mining/tidset.h"
#include "rtree/bulk_load.h"

namespace colarm {

namespace {

// Per-iteration cost in nanoseconds: after one warm-up call (cache and
// frequency ramp), the *minimum* of several repetitions — the standard
// robust micro-benchmark estimator, so plan selection does not wobble with
// transient machine load.
template <typename Op>
double MeasureNs(uint64_t iters_per_call, uint64_t calls, Op op) {
  uint64_t guard = op();  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    for (uint64_t c = 0; c < calls; ++c) guard += op();
    best = std::min(best, static_cast<double>(timer.ElapsedNanos()));
  }
  // Keep the side effect alive without printing it.
  if (guard == UINT64_MAX) best += 1.0;
  double denom = static_cast<double>(iters_per_call * calls);
  return denom > 0 ? best / denom : 0.0;
}

}  // namespace

CostConstants Calibrate(const Dataset& dataset) {
  CostConstants constants;
  const uint32_t m = dataset.num_records();
  const uint32_t n = dataset.num_attributes();
  if (m < 4 || n < 2) return constants;
  const Schema& schema = dataset.schema();

  // Record-level containment probes mimicking ELIMINATE's real access
  // pattern: a multi-item itemset checked over a strided (non-contiguous)
  // tid sample, which is what a focal subset's tid list looks like.
  const uint32_t sample = std::min<uint32_t>(m, 4096);
  std::vector<Tid> strided;
  strided.reserve(sample / 2 + 1);
  for (uint32_t i = 0; i < sample / 2; ++i) {
    strided.push_back((i * 2 + i % 3) % m);
  }
  if (strided.empty()) strided.push_back(0);
  // The two-item check exits early or probes both items; normalize by two
  // so the constant stays "ns per item probe" (one per parent record of an
  // ELIMINATE walk node, one per item per record of VERIFY's row probe).
  Itemset probe_items = {schema.ItemOf(n / 2, 0), schema.ItemOf(n - 1, 0)};
  constants.record_item_check_ns = std::max(
      0.2, MeasureNs(strided.size() * 2, 16, [&]() -> uint64_t {
        uint64_t hits = 0;
        for (Tid t : strided) {
          hits += dataset.ContainsAll(t, probe_items) ? 1 : 0;
        }
        return hits;
      }));

  // SEARCH's box tests at the schema's dimensionality, on the drill-down
  // shape of a real query: boxes spanning the full domain but two values
  // of the first attribute, and a query narrowed to one of them, so the
  // search tests one active dimension and reports every slot.
  Rect box = Rect::FullDomain(schema);
  box.SetInterval(0, 0, 1);
  Rect query = Rect::FullDomain(schema);
  query.SetInterval(0, 0, 0);
  std::vector<RTreeEntry> entries;
  for (uint32_t id = 0; id < 256; ++id) entries.push_back({box, id, 1});
  const RTree tree = BulkLoadPacked(n, std::move(entries));
  Bitmap hits(256);
  RTree::SearchStats search_stats;
  tree.Search(query, &hits, &hits, &search_stats);
  constants.rtree_box_check_ns = std::max(
      1.0, MeasureNs(search_stats.boxes_checked, 16, [&]() -> uint64_t {
        tree.Search(query, &hits, &hits);
        return hits.Count();
      }));

  // Tidset intersection throughput stands in for CHARM's per-cell work.
  Tidset a(2048);
  Tidset b(2048);
  for (uint32_t i = 0; i < 2048; ++i) {
    a[i] = 2 * i;
    b[i] = 3 * i;
  }
  constants.mine_cell_ns = std::max(
      0.3, MeasureNs(4096, 32, [&]() -> uint64_t {
        return TidsetIntersectSize(a, b);
      }));

  // Word-parallel AND+popcount throughput, the unit of every dense-DQ
  // route (ELIMINATE's walk, the VERIFY subset-lattice DFS).
  // Bitmap::AndCount routes through the dispatched SIMD kernel table, so
  // this constant automatically prices the ISA level active at build time
  // (COLARM_SIMD / SetActiveSimdLevel) — a vectorized host calibrates
  // proportionally cheaper dense routes, a forced-scalar run dearer ones,
  // and the optimizer's crossover points move with it.
  constexpr uint32_t kBitmapBits = 512 * Bitmap::kBitsPerWord;
  Bitmap bits_a(kBitmapBits);
  Bitmap bits_b(kBitmapBits);
  for (uint32_t i = 0; i < kBitmapBits; i += 3) bits_a.Set(i);
  for (uint32_t i = 0; i < kBitmapBits; i += 5) bits_b.Set(i);
  constants.bitmap_word_ns = std::max(
      0.05, MeasureNs(bits_a.num_words(), 64, [&]() -> uint64_t {
        return Bitmap::AndCount(bits_a, bits_b);
      }));

  // Rule checks are dominated by a subset lookup plus a division; model as
  // a small multiple of the containment probe.
  constants.rule_check_ns = 12.0 * constants.record_item_check_ns;
  return constants;
}

}  // namespace colarm
