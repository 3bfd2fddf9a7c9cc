// colarm_cli — command-line front end for the COLARM engine.
//
// Build an index over a CSV relation (or the built-in salary example),
// then run localized mining queries, ask for EXPLAIN output, export rules,
// or let the recommender propose where to look.
//
// Usage:
//   colarm_cli [flags] [command]
//
// Commands:
//   query 'REPORT ...;'     run one textual query (repeatable via stdin
//                           when the argument is '-'); supports the
//                           constraint clauses CONTAIN / EXCLUDE /
//                           ANTECEDENT ATTRIBUTES and the HAVING measure
//                           floors minlift / mincosine / minkulczynski
//   suggest                 print the parameter recommender's proposals
//   stats                   print index statistics
//   explain 'REPORT ...;'   show per-plan cost estimates, do not execute
//   session                 interactive session: read one query per line
//                           from stdin and execute each; prints every
//                           result and a final query count
//
// Flags:
//   --csv FILE              input relation (default: built-in salary data)
//   --bins N                discretization bins for numeric CSV columns
//   --primary F             primary support for the offline build
//   --cache FILE            MIP-index cache path (load-or-build)
//   --plan NAME             force a plan (S-E-V, S-VS, SS-E-V, SS-VS,
//                           SS-E-U-V, ARM) instead of the optimizer
//   --export-csv FILE       write the last query's rules as CSV
//   --export-json FILE      write the last query's rules as JSON
//   --measures              include interestingness measures in exports
//   --limit N               print at most N rules (default 20)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/export.h"
#include "core/query_parser.h"
#include "core/recommender.h"
#include "data/csv_reader.h"
#include "data/salary_dataset.h"

namespace colarm {
namespace {

struct CliOptions {
  std::string csv_path;
  uint32_t bins = 5;
  double primary = 0.1;
  std::string cache_path;
  std::optional<PlanKind> forced_plan;
  std::string export_csv;
  std::string export_json;
  bool with_measures = false;
  size_t limit = 20;
  std::string command;
  std::string argument;
};

std::optional<PlanKind> PlanByName(const std::string& name) {
  for (PlanKind kind : kAllPlans) {
    if (EqualsIgnoreCase(name, PlanKindName(kind))) return kind;
  }
  return std::nullopt;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--csv FILE] [--bins N] [--primary F] "
               "[--cache FILE]\n"
               "          [--plan NAME] [--export-csv FILE] "
               "[--export-json FILE]\n"
               "          [--measures] [--limit N]\n"
               "          (query STMT | suggest | stats | explain STMT |"
               " session)\n",
               argv0);
  return 2;
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  int i = 1;
  auto need_value = [&](const char* flag) -> Result<std::string> {
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(flag) + " needs a value");
    }
    return std::string(argv[++i]);
  };
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--csv") {
      auto v = need_value("--csv");
      if (!v.ok()) return v.status();
      options.csv_path = *v;
    } else if (arg == "--bins") {
      auto v = need_value("--bins");
      if (!v.ok()) return v.status();
      uint64_t bins = 0;
      if (!ParseUint64(*v, &bins) || bins == 0) {
        return Status::InvalidArgument("--bins must be a positive integer");
      }
      options.bins = static_cast<uint32_t>(bins);
    } else if (arg == "--primary") {
      auto v = need_value("--primary");
      if (!v.ok()) return v.status();
      if (!ParseDouble(*v, &options.primary)) {
        return Status::InvalidArgument("--primary must be a number");
      }
    } else if (arg == "--cache") {
      auto v = need_value("--cache");
      if (!v.ok()) return v.status();
      options.cache_path = *v;
    } else if (arg == "--plan") {
      auto v = need_value("--plan");
      if (!v.ok()) return v.status();
      options.forced_plan = PlanByName(*v);
      if (!options.forced_plan.has_value()) {
        return Status::InvalidArgument("unknown plan '" + *v + "'");
      }
    } else if (arg == "--export-csv") {
      auto v = need_value("--export-csv");
      if (!v.ok()) return v.status();
      options.export_csv = *v;
    } else if (arg == "--export-json") {
      auto v = need_value("--export-json");
      if (!v.ok()) return v.status();
      options.export_json = *v;
    } else if (arg == "--measures") {
      options.with_measures = true;
    } else if (arg == "--limit") {
      auto v = need_value("--limit");
      if (!v.ok()) return v.status();
      uint64_t limit = 0;
      if (!ParseUint64(*v, &limit)) {
        return Status::InvalidArgument("--limit must be an integer");
      }
      options.limit = limit;
    } else if (options.command.empty()) {
      options.command = arg;
    } else if (options.argument.empty()) {
      options.argument = arg;
    } else {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
  }
  if (options.command.empty()) {
    return Status::InvalidArgument("missing command");
  }
  return options;
}

int RunQuery(const Engine& engine, const Dataset& dataset,
             const CliOptions& options, const std::string& statement,
             bool explain_only) {
  const Schema& schema = dataset.schema();
  auto query = ParseQuery(schema, statement);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  if (explain_only) {
    auto decision = engine.Explain(*query);
    if (!decision.ok()) {
      std::fprintf(stderr, "%s\n", decision.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", FormatDecision(*decision).c_str());
    return 0;
  }

  Result<QueryResult> result =
      options.forced_plan.has_value()
          ? engine.ExecuteWithPlan(*query, *options.forced_plan)
          : engine.Execute(*query);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu rule(s), plan %s, %.3f ms (|DQ|=%u)\n",
              result->rules.rules.size(), PlanKindName(result->plan_used),
              result->stats.total_ms, result->stats.subset_size);
  if (!query->constraints.Empty()) {
    std::string clauses = query->constraints.ToString(schema);
    if (clauses.rfind(" AND ", 0) == 0) clauses.erase(0, 5);
    std::printf("constraints: %s\n", clauses.c_str());
  }
  std::printf("%s", FormatRules(schema, result->rules, options.limit).c_str());

  if (!options.export_csv.empty() || !options.export_json.empty()) {
    const FocalSubset subset = OpSelect(engine.index(), *query);
    ExportOptions export_options;
    export_options.with_measures = options.with_measures;
    if (!options.export_csv.empty()) {
      std::ofstream out(options.export_csv);
      RulesToCsv(dataset, result->rules, subset, export_options, out);
      std::printf("wrote %s\n", options.export_csv.c_str());
    }
    if (!options.export_json.empty()) {
      std::ofstream out(options.export_json);
      RulesToJson(dataset, result->rules, subset, export_options, out);
      std::printf("wrote %s\n", options.export_json.c_str());
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage(argv[0]);
  }
  const CliOptions& options = *parsed;

  Dataset dataset = MakeSalaryDataset();
  if (!options.csv_path.empty()) {
    CsvOptions csv_options;
    csv_options.numeric_bins = options.bins;
    auto loaded = ReadCsvFile(options.csv_path, csv_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", options.csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded.value());
  } else {
    std::fprintf(stderr, "note: no --csv given, using built-in salary data\n");
  }

  EngineOptions engine_options;
  engine_options.index.primary_support =
      options.csv_path.empty() ? 0.27 : options.primary;
  engine_options.index_cache_path = options.cache_path;
  auto engine = Engine::Build(dataset, engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  if (options.command == "stats") {
    std::printf("%s", (*engine)->index().stats().ToString().c_str());
    return 0;
  }
  if (options.command == "suggest") {
    ParameterRecommender recommender((*engine)->index());
    auto suggestions = recommender.Suggest();
    if (suggestions.empty()) {
      std::printf("no localized structure found\n");
      return 0;
    }
    for (size_t i = 0; i < suggestions.size(); ++i) {
      std::printf("%zu. %s\n", i + 1,
                  suggestions[i].ToString(dataset.schema()).c_str());
    }
    return 0;
  }
  if (options.command == "query" || options.command == "explain") {
    std::string statement = options.argument;
    if (statement.empty() || statement == "-") {
      std::string line;
      while (std::getline(std::cin, line)) {
        statement += line;
        statement += '\n';
      }
    }
    if (statement.empty()) {
      std::fprintf(stderr, "no query given\n");
      return 1;
    }
    return RunQuery(**engine, dataset, options, statement,
                    options.command == "explain");
  }
  if (options.command == "session") {
    std::fprintf(stderr,
                 "session mode; one query per line, EOF ends the session\n");
    std::string line;
    size_t executed = 0;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      auto query = ParseQuery(dataset.schema(), line);
      if (!query.ok()) {
        std::fprintf(stderr, "parse error: %s\n",
                     query.status().ToString().c_str());
        continue;
      }
      auto result = (*engine)->Execute(*query);
      if (!result.ok()) {
        std::fprintf(stderr, "execution error: %s\n",
                     result.status().ToString().c_str());
        continue;
      }
      ++executed;
      std::printf("%s",
                  FormatQueryResult(dataset.schema(), *result).c_str());
    }
    std::printf("session summary: %zu quer(ies)\n", executed);
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", options.command.c_str());
  return Usage(argv[0]);
}

}  // namespace
}  // namespace colarm

int main(int argc, char** argv) { return colarm::Main(argc, argv); }
