#include <gtest/gtest.h>

#include <memory>

#include "core/explain.h"
#include "data/salary_dataset.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

std::unique_ptr<Engine> BuildEngine(const Dataset& data) {
  EngineOptions options;
  options.index.primary_support = 0.25;
  options.calibrate = false;
  auto engine = Engine::Build(data, options);
  EXPECT_TRUE(engine.ok());
  return std::move(engine.value());
}

TEST(ExplainTest, DecisionTableListsAllPlansAndMarksChoice) {
  auto data = std::make_unique<Dataset>(RandomDataset(1, 150, 4, 3));
  auto engine = BuildEngine(*data);
  LocalizedQuery query;
  query.minsupp = 0.5;
  query.minconf = 0.8;
  auto decision = engine->Explain(query);
  ASSERT_TRUE(decision.ok());
  std::string table = FormatDecision(*decision);
  for (PlanKind kind : kAllPlans) {
    EXPECT_NE(table.find(PlanKindName(kind)), std::string::npos);
  }
  EXPECT_NE(table.find("<== chosen"), std::string::npos);
}

TEST(ExplainTest, PlanSummaryTableMatchesTable4) {
  std::string table = FormatPlanSummaryTable();
  EXPECT_NE(table.find("S-E-V"), std::string::npos);
  EXPECT_NE(table.find("SS-E-U-V"), std::string::npos);
  EXPECT_NE(table.find("Supported R-tree filter"), std::string::npos);
  EXPECT_NE(table.find("COST(SS) + COST(E) + COST(U) + COST(V)"),
            std::string::npos);
}

TEST(ExplainTest, FormatRulesSortsBySupport) {
  Dataset data = MakeSalaryDataset();
  RuleSet rules;
  rules.rules.push_back(Rule{{data.schema().ItemOf(4, 0)},
                             {data.schema().ItemOf(5, 2)},
                             2,
                             4,
                             10});
  rules.rules.push_back(Rule{{data.schema().ItemOf(4, 1)},
                             {data.schema().ItemOf(5, 2)},
                             8,
                             9,
                             10});
  // FormatRules prints in the order it is given; Canonicalize() is what
  // puts the higher support first (ExecutePlan does it for every answer).
  rules.Canonicalize();
  std::string text = FormatRules(data.schema(), rules);
  size_t high = text.find("Age=30-40");
  size_t low = text.find("Age=20-30");
  ASSERT_NE(high, std::string::npos);
  ASSERT_NE(low, std::string::npos);
  EXPECT_LT(high, low);  // higher support printed first
}

TEST(ExplainTest, FormatRulesHonorsLimit) {
  Dataset data = MakeSalaryDataset();
  RuleSet rules;
  for (int i = 0; i < 5; ++i) {
    rules.rules.push_back(Rule{{data.schema().ItemOf(4, 0)},
                               {data.schema().ItemOf(5, 2)},
                               static_cast<uint32_t>(i + 1),
                               10,
                               10});
  }
  std::string text = FormatRules(data.schema(), rules, 2);
  EXPECT_NE(text.find("and 3 more rules"), std::string::npos);
}

// Constrained queries surface their provenance on both console surfaces:
// EXPLAIN's decision table and the query-result summary. Unconstrained
// output stays byte-identical (no constraints line at all).
TEST(ExplainTest, ConstraintProvenanceOnBothSurfaces) {
  Dataset data = MakeSalaryDataset();
  EngineOptions options;
  options.index.primary_support = 0.27;
  options.calibrate = false;
  auto engine = Engine::Build(data, options);
  ASSERT_TRUE(engine.ok());

  LocalizedQuery query;
  query.ranges = {{2, 2, 2}};  // Seattle
  query.minsupp = 0.5;
  query.minconf = 0.6;
  query.constraints.must_contain = {data.schema().ItemOf(3, 1)};
  query.constraints.antecedent_only = {4};
  query.constraints.min_kulczynski = 0.5;

  auto decision = engine.value()->Explain(query);
  ASSERT_TRUE(decision.ok());
  std::string table = FormatDecision(*decision);
  EXPECT_NE(table.find("constraints pushed into plan:"), std::string::npos)
      << table;
  EXPECT_NE(table.find("CONTAIN {Gender=F}"), std::string::npos) << table;
  EXPECT_NE(table.find("ANTECEDENT ATTRIBUTES {Age}"), std::string::npos)
      << table;
  EXPECT_NE(table.find("minkulczynski"), std::string::npos) << table;

  auto result = engine.value()->Execute(query);
  ASSERT_TRUE(result.ok());
  std::string text = FormatQueryResult(data.schema(), *result);
  EXPECT_NE(text.find("constraints: CONTAIN {Gender=F}"), std::string::npos)
      << text;

  LocalizedQuery plain = query;
  plain.constraints = RuleConstraints{};
  auto plain_decision = engine.value()->Explain(plain);
  ASSERT_TRUE(plain_decision.ok());
  EXPECT_EQ(FormatDecision(*plain_decision).find("constraints"),
            std::string::npos);
  auto plain_result = engine.value()->Execute(plain);
  ASSERT_TRUE(plain_result.ok());
  EXPECT_EQ(FormatQueryResult(data.schema(), *plain_result)
                .find("constraints"),
            std::string::npos);
}

TEST(ExplainTest, FormatQueryResultEndToEnd) {
  auto data = std::make_unique<Dataset>(MakeSalaryDataset());
  EngineOptions options;
  options.index.primary_support = 0.27;
  options.calibrate = false;
  auto engine = Engine::Build(*data, options);
  ASSERT_TRUE(engine.ok());
  LocalizedQuery query;
  query.ranges = {{2, 2, 2}, {3, 1, 1}};
  query.item_attrs = {4, 5};
  query.minsupp = 0.75;
  query.minconf = 1.0;
  auto result = engine.value()->Execute(query);
  ASSERT_TRUE(result.ok());
  std::string text = FormatQueryResult(data->schema(), *result);
  EXPECT_NE(text.find("localized rule"), std::string::npos);
  EXPECT_NE(text.find("|DQ|=4"), std::string::npos);
}

}  // namespace
}  // namespace colarm
