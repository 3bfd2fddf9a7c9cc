#ifndef COLARM_BENCH_HARNESS_H_
#define COLARM_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/synthetic.h"

namespace colarm {
namespace bench {

/// One evaluation dataset analog with its paper parameters (primary
/// support for the offline build, the minsupport sweep of Figures 9-11).
struct BenchDataset {
  std::string name;
  std::unique_ptr<Dataset> data;
  double primary_support = 0.6;
  std::vector<double> minsupps;
  double minconf = 0.85;
};

/// Scale factor for dataset sizes, read from COLARM_BENCH_SCALE (default
/// 1.0). Values < 1 shrink record counts for quick smoke runs. A value
/// that does not parse as a number > 0 is fatal (stderr + exit 2): a
/// silently defaulted knob mislabels the whole run.
double ScaleFromEnv();

/// Worker threads for the engine, read from COLARM_BENCH_THREADS: 0
/// (default) = hardware concurrency, 1 = the exact sequential path.
/// Misparses are fatal (stderr + exit 2).
unsigned ThreadsFromEnv();

/// Machine-readable sink for plan-figure runs: one JSON object per line
/// appended per (dataset, DQ, minsupp) scenario. Path comes from
/// COLARM_BENCH_JSON (default "BENCH_plans.json"; empty string disables).
std::string JsonSinkPath();

/// The three analogs of the paper's evaluation datasets (DESIGN.md §4),
/// at the paper's primary supports: chess 60%, mushroom 5%, PUMSB 80%.
BenchDataset MakeChess();
BenchDataset MakeMushroom();
BenchDataset MakePumsb();

/// Builds the engine for a bench dataset (calibrated cost constants).
std::unique_ptr<Engine> BuildEngine(const BenchDataset& dataset);

/// Queries selecting ~`dq_fraction` of the records: contiguous intervals
/// of the region attribute at `placements` deterministic offsets.
std::vector<LocalizedQuery> MakeQueries(const Dataset& data,
                                        double dq_fraction, double minsupp,
                                        double minconf, int placements);

/// Per-plan execution times for one (DQ fraction, minsupp, minconf)
/// scenario, averaged over placements, plus what the optimizer picked and
/// what actually won. Per placement, every plan first runs once untimed,
/// then kTimedRounds times in a rotated order, and keeps its fastest run,
/// so no plan pays for starting cold or always going first.
struct ScenarioResult {
  double avg_ms[6] = {0, 0, 0, 0, 0, 0};
  PlanKind optimizer_pick = PlanKind::kSEV;
  PlanKind measured_best = PlanKind::kSEV;
  double optimizer_pick_ms = 0.0;
  double measured_best_ms = 0.0;
  size_t rules = 0;
};

ScenarioResult RunScenario(const Engine& engine, double dq_fraction,
                           double minsupp, double minconf, int placements);

/// "50%" / "1%" style labels used in the figure output.
std::string FractionLabel(double fraction);

/// Shared driver for the Figure 9/10/11 analogs: sweeps DQ size x minsupp
/// at fixed minconf and prints the per-plan average execution times with
/// the COLARM optimizer's pick marked.
void RunPlanFigure(const BenchDataset& dataset, const char* figure_title);

/// The paper's DQ sizes (Figures 9-13): 50%, 20%, 10%, 1% of |D|.
inline constexpr double kDqFractions[] = {0.5, 0.2, 0.1, 0.01};

}  // namespace bench
}  // namespace colarm

#endif  // COLARM_BENCH_HARNESS_H_
