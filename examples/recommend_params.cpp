// Parameter recommendation (the paper's future-work item (a)): instead of
// the analyst guessing where local structure hides and which thresholds
// expose it, the recommender scans windows over every attribute domain and
// proposes ready-to-run localized queries ranked by how many fresh local
// itemsets they surface. The top suggestion is then executed, with
// null-invariant interestingness measures for each reported rule.
//
//   $ ./recommend_params
#include <cstdio>

#include "core/engine.h"
#include "core/recommender.h"
#include "data/synthetic.h"
#include "mining/measures.h"
#include "plans/operators.h"

using namespace colarm;

int main() {
  // A sensor-fleet-like relation: two planted anomaly pockets.
  SyntheticConfig config;
  config.name = "sensor-fleet";
  config.seed = 909;
  config.num_records = 8000;
  config.num_attributes = 9;
  config.values_per_attribute = 4;
  config.region_domain = 48;
  config.dominant_prob = 0.9;
  config.group_coherence = 0.3;
  config.noise = 0.01;
  config.local_patterns = {
      {6, 11, {3, 4, 5}, 2, 0.94},   // overheating pocket
      {30, 35, {6, 7}, 3, 0.9},      // firmware-drift pocket
  };
  auto data = GenerateSynthetic(config);
  if (!data.ok()) return 1;
  const Schema& schema = data->schema();

  EngineOptions options;
  options.index.primary_support = 0.04;
  auto engine = Engine::Build(*data, options);
  if (!engine.ok()) return 1;
  std::printf("%u records indexed (%u MIPs). Asking the recommender where "
              "to look...\n\n",
              data->num_records(), (*engine)->index().num_mips());

  ParameterRecommender recommender((*engine)->index());
  auto suggestions = recommender.Suggest();
  if (suggestions.empty()) {
    std::printf("No localized structure found.\n");
    return 0;
  }
  for (size_t i = 0; i < suggestions.size(); ++i) {
    std::printf("%zu. %s\n", i + 1,
                suggestions[i].ToString(schema).c_str());
  }

  // Execute the top suggestion and annotate the strongest rules with the
  // null-invariant measures of Wu, Chen & Han.
  const RegionSuggestion& top = suggestions.front();
  std::printf("\nRunning suggestion #1...\n");
  auto result = (*engine)->Execute(top.query);
  if (!result.ok()) return 1;
  const FocalSubset subset = OpSelect((*engine)->index(), top.query);
  size_t shown = 0;
  for (const Rule& rule : result->rules.rules) {
    if (++shown > 5) break;
    RuleMeasures measures =
        ComputeMeasures(CountsForRule(*data, subset.tids, rule));
    std::printf("  %s\n      %s\n", rule.ToString(schema).c_str(),
                measures.ToString().c_str());
  }
  std::printf("\n%zu rules total from the suggested request.\n",
              result->rules.rules.size());
  return 0;
}
