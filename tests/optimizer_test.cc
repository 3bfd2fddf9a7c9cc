#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "core/engine.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

std::unique_ptr<Engine> BuildEngine(const Dataset& data, double primary) {
  EngineOptions options;
  options.index.primary_support = primary;
  options.calibrate = false;  // deterministic defaults for tests
  auto engine = Engine::Build(data, options);
  EXPECT_TRUE(engine.ok());
  return std::move(engine.value());
}

TEST(OptimizerTest, ChoosesMinimumEstimate) {
  auto data = std::make_unique<Dataset>(RandomDataset(1, 250, 5, 4));
  auto engine = BuildEngine(*data, 0.2);
  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.5;
  query.minconf = 0.8;
  OptimizerDecision decision = engine->optimizer().Choose(query);
  for (const PlanCostEstimate& est : decision.estimates) {
    EXPECT_GE(est.total, decision.chosen_estimate().total);
  }
}

TEST(OptimizerTest, EstimatesCoverAllSixPlans) {
  auto data = std::make_unique<Dataset>(RandomDataset(2, 200, 4, 3));
  auto engine = BuildEngine(*data, 0.25);
  LocalizedQuery query;
  query.minsupp = 0.5;
  query.minconf = 0.8;
  OptimizerDecision decision = engine->optimizer().Choose(query);
  std::set<PlanKind> seen;
  for (const PlanCostEstimate& est : decision.estimates) seen.insert(est.plan);
  EXPECT_EQ(seen.size(), 6u);
}

// The headline claim (Section 5.1): the optimizer picks the genuinely
// fastest plan in the overwhelming majority of scenarios; when it misses,
// the chosen plan must not be catastrophically worse. We assert a relaxed
// regret bound rather than the paper's 93% hit rate because wall-clock
// rankings on a tiny CI dataset are noisy.
TEST(OptimizerTest, LowRegretAgainstMeasuredBestPlan) {
  auto data = std::make_unique<Dataset>(
      GenerateSynthetic(ChessLikeConfig(0.1)).value());
  EngineOptions options;
  options.index.primary_support = 0.55;
  options.calibrate = true;  // use real machine constants for timing match
  auto engine_result = Engine::Build(*data, options);
  ASSERT_TRUE(engine_result.ok());
  auto& engine = *engine_result.value();

  int scenarios = 0;
  double total_regret = 0.0;
  for (ValueId lo : {0, 40}) {
    for (ValueId width : {9, 49}) {
      for (double minsupp : {0.75, 0.85}) {
        LocalizedQuery query;
        query.ranges = {{0, lo, static_cast<ValueId>(lo + width)}};
        query.minsupp = minsupp;
        query.minconf = 0.85;

        // Measure all plans (best of 2 runs each to damp noise).
        double best_ms = 1e100;
        double chosen_ms = 1e100;
        PlanKind chosen = engine.Explain(query).value().chosen;
        for (PlanKind kind : kAllPlans) {
          double ms = 1e100;
          for (int rep = 0; rep < 2; ++rep) {
            auto result = engine.ExecuteWithPlan(query, kind);
            ASSERT_TRUE(result.ok());
            ms = std::min(ms, result->stats.total_ms);
          }
          best_ms = std::min(best_ms, ms);
          if (kind == chosen) chosen_ms = ms;
        }
        ++scenarios;
        total_regret += (chosen_ms - best_ms) / std::max(best_ms, 1e-6);
      }
    }
  }
  // Average regret across scenarios must be small: the optimizer's picks
  // track the fastest plan.
  EXPECT_LT(total_regret / scenarios, 3.0);
}

TEST(OptimizerTest, ArmBecomesAttractiveForTinyIndexes) {
  // With a near-empty MIP-index the index-based plans have little to offer;
  // the estimates must not make ARM absurdly expensive relative to them.
  auto data = std::make_unique<Dataset>(RandomDataset(3, 100, 4, 3));
  auto engine = BuildEngine(*data, 0.95);
  LocalizedQuery query;
  query.ranges = {{0, 0, 0}};
  query.minsupp = 0.4;
  query.minconf = 0.6;
  OptimizerDecision decision = engine->optimizer().Choose(query);
  double arm = decision.estimates[static_cast<size_t>(PlanKind::kARM)].total;
  double sev = decision.estimates[static_cast<size_t>(PlanKind::kSEV)].total;
  EXPECT_LT(arm, sev * 1000.0);
}

// The relation the server benchmark serves: `tiles` copies of the analog's
// region values side by side, each copy with the analog's localized
// patterns.
SyntheticConfig Tiled(SyntheticConfig config, uint32_t tiles) {
  const std::vector<LocalPattern> tile = std::move(config.local_patterns);
  config.local_patterns.clear();
  for (uint32_t t = 0; t < tiles; ++t) {
    for (LocalPattern pattern : tile) {
      pattern.region_lo += t * config.region_domain;
      pattern.region_hi += t * config.region_domain;
      config.local_patterns.push_back(std::move(pattern));
    }
  }
  config.region_domain *= tiles;
  return config;
}

// Estimates only, with the default constants the server runs on
// (--no-calibrate). On the full PUMSB analog, a cold-mine-shaped query (15
// region values, minsupp 90%) goes to an index plan: SEARCH and
// ELIMINATE's pruned walk cost a fraction of re-mining the subset. On the
// 8-fold tiled chess analog, an explore-shaped query (4 region values and
// the majority value of a leaning attribute, minsupp 90%) selects a few
// dozen records, which ARM mines for less than SEARCH alone costs.
TEST(OptimizerTest, DefaultConstantsPickIndexForColdMineAndArmForExplore) {
  {
    auto data = std::make_unique<Dataset>(
        GenerateSynthetic(PumsbLikeConfig(1.0)).value());
    auto engine = BuildEngine(*data, 0.80);
    LocalizedQuery query;
    query.ranges = {{0, 30, 44}};
    query.minsupp = 0.90;
    query.minconf = 0.85;
    const OptimizerDecision decision = engine->optimizer().Choose(query);
    EXPECT_NE(decision.chosen, PlanKind::kARM)
        << decision.chosen_estimate().ToString();
  }
  {
    auto data = std::make_unique<Dataset>(
        GenerateSynthetic(Tiled(ChessLikeConfig(8.0), 8)).value());
    auto engine = BuildEngine(*data, 0.60);
    const Schema& schema = data->schema();
    std::optional<AttrId> lean;
    for (AttrId a = 0; a < schema.num_attributes() && !lean; ++a) {
      if (schema.attribute(a).name.rfind("lean", 0) == 0) lean = a;
    }
    ASSERT_TRUE(lean.has_value());
    const std::vector<std::string>& values = schema.attribute(*lean).values;
    const auto v0 = static_cast<ValueId>(
        std::find(values.begin(), values.end(), "v0") - values.begin());
    ASSERT_LT(v0, values.size());
    const auto period =
        static_cast<ValueId>(schema.attribute(0).domain_size() / 8);
    LocalizedQuery query;
    const auto lo = static_cast<ValueId>(5 * period + 3);
    query.ranges = {{0, lo, static_cast<ValueId>(lo + 3)}, {*lean, v0, v0}};
    query.minsupp = 0.90;
    query.minconf = 0.85;
    const OptimizerDecision decision = engine->optimizer().Choose(query);
    EXPECT_EQ(decision.chosen, PlanKind::kARM)
        << decision.chosen_estimate().ToString();
  }
}

}  // namespace
}  // namespace colarm
