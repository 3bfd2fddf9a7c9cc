// Threshold explorer: the interactive "try 80/90... now 75/85..." loop on
// one focal subset. Every (minsupp, minconf) cell is an ordinary
// Engine::Execute call with the session cache on: the first query on the
// box scans the relation to materialize the focal subset; every later cell
// reuses the cached subset instead of rescanning, then counts its own
// qualifying itemsets within it. Prints the rule-count map an exploration
// UI would render, the cache's work, and one cell's rules.
//
//   $ ./threshold_explorer
#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/explain.h"
#include "data/synthetic.h"

using namespace colarm;

int main() {
  auto data = GenerateSynthetic(ChessLikeConfig(0.5));
  if (!data.ok()) return 1;
  EngineOptions options;
  options.index.primary_support = 0.6;
  options.cache = QueryCacheOptions{};  // the default budget
  auto engine = Engine::Build(*data, options);
  if (!engine.ok()) return 1;

  LocalizedQuery query;
  query.ranges = {{0, 10, 49}};  // a 40%-of-domain region window
  std::printf("Focal selection: %s\n\n",
              query.ToString(data->schema()).c_str());

  const std::vector<double> supps = {0.75, 0.80, 0.85, 0.90};
  const std::vector<double> confs = {0.70, 0.80, 0.90, 0.95, 0.99};
  std::printf("Rule counts by (minsupp x minconf):\n\n          ");
  for (double conf : confs) std::printf("  conf>=%2.0f%%", conf * 100);
  std::printf("\n");

  Timer sweep_timer;
  double first_ms = 0.0;
  for (size_t i = 0; i < supps.size(); ++i) {
    std::printf("supp>=%2.0f%%", supps[i] * 100);
    for (size_t j = 0; j < confs.size(); ++j) {
      query.minsupp = supps[i];
      query.minconf = confs[j];
      Timer cell_timer;
      auto result = (*engine)->Execute(query);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      if (i == 0 && j == 0) first_ms = cell_timer.ElapsedMillis();
      std::printf("  %9zu", result->rules.rules.size());
    }
    std::printf("\n");
  }
  const size_t cells = supps.size() * confs.size();
  const CacheTelemetry cache = (*engine)->cache()->telemetry();
  std::printf("\n%zu cells in %.1f ms (first, cold: %.1f ms). Session cache: "
              "%llu exact subset hits, %llu miss.\n",
              cells, sweep_timer.ElapsedMillis(), first_ms,
              static_cast<unsigned long long>(cache.hits_exact),
              static_cast<unsigned long long>(cache.misses));

  // Drill into a cell of interest.
  std::printf("\nDrilling into (minsupp 80%%, minconf 95%%):\n");
  query.minsupp = 0.80;
  query.minconf = 0.95;
  auto rules = (*engine)->Execute(query);
  if (!rules.ok()) return 1;
  std::printf("%s", FormatRules(data->schema(), rules->rules, 8).c_str());
  return 0;
}
