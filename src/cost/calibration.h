#ifndef COLARM_COST_CALIBRATION_H_
#define COLARM_COST_CALIBRATION_H_

#include "data/dataset.h"

namespace colarm {

/// Unit costs (nanoseconds per primitive operation) that scale the paper's
/// cost formulas into comparable time estimates. Defaults approximate a
/// modern core; Calibrate() refines them with short micro-measurements on
/// the actual machine and data at index-build time.
struct CostConstants {
  double rtree_box_check_ns = 25.0;    // one box-vs-box intersection test
  double record_item_check_ns = 2.5;   // one record/item containment probe
  double rule_check_ns = 40.0;         // one antecedent lookup + compare
  double mine_cell_ns = 6.0;           // CHARM work per record-item cell
  double union_const_ns = 500.0;       // the UNION operator's fixed cost
  double bitmap_word_ns = 1.0;         // one 64-bit AND+popcount word op
};

/// Micro-benchmarks the primitive operations on `dataset` (a few
/// milliseconds total) and returns measured constants. Deterministic
/// record sampling; falls back to defaults for degenerate datasets.
CostConstants Calibrate(const Dataset& dataset);

}  // namespace colarm

#endif  // COLARM_COST_CALIBRATION_H_
