// Section 5.1 analog ("plan selection accuracy of COLARM optimizer"):
// over 3 datasets x 36 parameter settings (4 DQ sizes x 3 minsupports x 3
// minconfidences) the optimizer's pick is compared against the measured
// fastest plan. The paper reports >93% accuracy with <=5% extra cost on
// misses; we report the same two metrics plus a near-miss rate (chosen
// plan within 25% of the best), which is the robust statistic on a noisy
// single-core container.
//
// The whole table runs twice when the host has vector kernels: once with
// SIMD forced off (scalar kernels) and once at the best supported level.
// Calibration happens per engine build, so each pass prices the bitmap
// word cost for the kernels it actually runs — the accuracy figures prove
// the cost model keeps picking the measured-best plan as the kernel
// speeds shift underneath it.
#include <cstdio>
#include <iterator>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/cpu_features.h"
#include "harness.h"

namespace colarm {
namespace bench {
namespace {

struct Tally {
  int scenarios = 0;
  int exact_hits = 0;
  int near_hits = 0;  // chosen within 25% of measured best
  double total_regret = 0.0;

  void Add(const ScenarioResult& r) {
    const double regret =
        r.measured_best_ms <= 0.0
            ? 0.0
            : (r.optimizer_pick_ms - r.measured_best_ms) / r.measured_best_ms;
    ++scenarios;
    total_regret += regret;
    if (r.optimizer_pick == r.measured_best) ++exact_hits;
    if (regret <= 0.25) ++near_hits;
  }

  void Add(const Tally& other) {
    scenarios += other.scenarios;
    exact_hits += other.exact_hits;
    near_hits += other.near_hits;
    total_regret += other.total_regret;
  }

  void Print(const char* label) const {
    if (scenarios == 0) return;
    std::printf("%-14s exact=%2d/%2d (%.0f%%)  within-25%%=%2d/%2d (%.0f%%)  "
                "avg extra cost on all=%.1f%%\n",
                label, exact_hits, scenarios, 100.0 * exact_hits / scenarios,
                near_hits, scenarios, 100.0 * near_hits / scenarios,
                100.0 * total_regret / scenarios);
  }
};

// Also tallied by the record-level route the plans take: a DQ fraction
// below the density bar (1% of D) runs the row-probe and tid-list routes,
// the larger ones the bitmap routes.
void RunAtLevel(const BenchDataset* datasets, size_t num_datasets) {
  const double minconfs[] = {0.85, 0.90, 0.95};

  Tally overall;
  Tally dense;
  Tally sparse;
  for (size_t d = 0; d < num_datasets; ++d) {
    const BenchDataset& dataset = datasets[d];
    auto engine = BuildEngine(dataset);
    const uint32_t records = dataset.data->num_records();
    Tally tally;
    for (double dq : kDqFractions) {
      const bool dq_dense =
          IsDense(static_cast<uint64_t>(dq * records), records);
      for (double minsupp : dataset.minsupps) {
        for (double minconf : minconfs) {
          ScenarioResult r =
              RunScenario(*engine, dq, minsupp, minconf, /*placements=*/1);
          tally.Add(r);
          (dq_dense ? dense : sparse).Add(r);
        }
      }
    }
    tally.Print(dataset.name.c_str());
    overall.Add(tally);
  }
  overall.Print("overall");
  dense.Print("dense DQ");
  sparse.Print("sparse DQ");
}

void Run() {
  std::printf("COLARM optimizer plan-selection accuracy "
              "(3 datasets x 36 settings)\n\n");
  BenchDataset datasets[] = {MakeChess(), MakeMushroom(), MakePumsb()};

  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (MaxSupportedSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(MaxSupportedSimdLevel());
  }
  const SimdLevel entry_level = ActiveSimdLevel();
  for (SimdLevel level : levels) {
    if (!SetActiveSimdLevel(level)) continue;
    std::printf("-- SIMD %s --\n", SimdLevelName(level));
    RunAtLevel(datasets, std::size(datasets));
    std::printf("\n");
  }
  SetActiveSimdLevel(entry_level);
}

}  // namespace
}  // namespace bench
}  // namespace colarm

int main() {
  colarm::bench::Run();
  return 0;
}
