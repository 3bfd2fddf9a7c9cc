#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "common/string_util.h"
#include "core/export.h"
#include "data/salary_dataset.h"
#include "test_util.h"

namespace colarm {
namespace {

struct Env {
  std::unique_ptr<Dataset> data;
  RuleSet rules;
  FocalSubset subset;

  static Env Make() {
    Env env;
    env.data = std::make_unique<Dataset>(MakeSalaryDataset());
    EngineOptions options;
    options.index.primary_support = 0.27;
    options.calibrate = false;
    auto engine = Engine::Build(*env.data, options);
    EXPECT_TRUE(engine.ok());
    LocalizedQuery query;
    query.ranges = {{2, 2, 2}, {3, 1, 1}};
    query.minsupp = 0.75;
    query.minconf = 1.0;
    auto result = (*engine)->Execute(query);
    EXPECT_TRUE(result.ok());
    env.rules = result->rules;
    env.subset = OpSelect((*engine)->index(), query);
    return env;
  }
};

TEST(ExportTest, CsvHasHeaderAndOneLinePerRule) {
  Env env = Env::Make();
  std::string csv = RulesToCsvString(*env.data, env.rules, env.subset);
  auto lines = colarm::SplitString(csv, '\n');
  // header + rules + trailing empty fragment
  ASSERT_EQ(lines.size(), env.rules.rules.size() + 2);
  EXPECT_EQ(lines[0],
            "antecedent,consequent,support,confidence,itemset_count,"
            "antecedent_count,base_count");
  EXPECT_NE(lines[1].find("Location=Seattle"), std::string::npos);
}

TEST(ExportTest, CsvWithMeasuresAddsColumns) {
  Env env = Env::Make();
  ExportOptions options;
  options.with_measures = true;
  std::string csv =
      RulesToCsvString(*env.data, env.rules, env.subset, options);
  auto lines = colarm::SplitString(csv, '\n');
  EXPECT_NE(lines[0].find("kulczynski"), std::string::npos);
  // Column count consistent across header and data rows.
  size_t header_cols = colarm::SplitString(lines[0], ',').size();
  EXPECT_EQ(header_cols, 14u);
}

TEST(ExportTest, CsvQuotesFieldsWithCommas) {
  Dataset data{Schema(std::vector<Attribute>{
      {"a", {"x,y", "plain"}},
      {"b", {"v\"q", "w"}},
  })};
  ASSERT_TRUE(data.AddRecord({0, 0}).ok());
  RuleSet rules;
  rules.rules.push_back(
      Rule{{data.schema().ItemOf(0, 0)}, {data.schema().ItemOf(1, 0)}, 1, 1,
           1});
  FocalSubset subset;
  subset.tids = {0};
  std::string csv = RulesToCsvString(data, rules, subset);
  EXPECT_NE(csv.find("\"a=x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"b=v\"\"q\""), std::string::npos);
}

TEST(ExportTest, JsonIsWellFormedish) {
  Env env = Env::Make();
  std::string json = RulesToJsonString(*env.data, env.rules, env.subset);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // One object per rule.
  size_t objects = 0;
  for (size_t pos = json.find("{\"antecedent\""); pos != std::string::npos;
       pos = json.find("{\"antecedent\"", pos + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, env.rules.rules.size());
  // Balanced braces.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ExportTest, JsonEscapesSpecials) {
  Dataset data{Schema(std::vector<Attribute>{
      {"a", {"quote\"inside", "plain"}},
      {"b", {"back\\slash", "w"}},
  })};
  ASSERT_TRUE(data.AddRecord({0, 0}).ok());
  RuleSet rules;
  rules.rules.push_back(
      Rule{{data.schema().ItemOf(0, 0)}, {data.schema().ItemOf(1, 0)}, 1, 1,
           1});
  FocalSubset subset;
  subset.tids = {0};
  std::string json = RulesToJsonString(data, rules, subset);
  EXPECT_NE(json.find("quote\\\"inside"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
}

TEST(ExportTest, EmptyRuleSet) {
  Env env = Env::Make();
  RuleSet empty;
  FocalSubset subset;
  std::string csv = RulesToCsvString(*env.data, empty, subset);
  EXPECT_EQ(colarm::SplitString(csv, '\n').size(), 2u);  // header only
  std::string json = RulesToJsonString(*env.data, empty, subset);
  EXPECT_EQ(json, "[\n]\n");
}

TEST(ExportTest, JsonMeasuresIncluded) {
  Env env = Env::Make();
  ExportOptions options;
  options.with_measures = true;
  std::string json =
      RulesToJsonString(*env.data, env.rules, env.subset, options);
  EXPECT_NE(json.find("\"kulczynski\""), std::string::npos);
  EXPECT_NE(json.find("\"lift\""), std::string::npos);
}

}  // namespace
}  // namespace colarm
