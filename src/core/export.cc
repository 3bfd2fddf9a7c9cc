#include "core/export.h"

#include <sstream>

#include "common/string_util.h"
#include "mining/measures.h"

namespace colarm {

namespace {

std::string JoinItems(const Schema& schema, const Itemset& items) {
  std::string out;
  AppendItems(schema, items, ";", &out);
  return out;
}

std::string CsvQuote(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void RulesToCsv(const Dataset& dataset, const RuleSet& rules,
                const FocalSubset& subset, const ExportOptions& options,
                std::ostream& out) {
  const Schema& schema = dataset.schema();
  out << "antecedent,consequent,support,confidence,itemset_count,"
         "antecedent_count,base_count";
  if (options.with_measures) {
    out << ",lift,cosine,kulczynski,all_confidence,max_confidence,leverage,"
           "imbalance";
  }
  out << "\n";
  for (const Rule& rule : rules.rules) {
    out << CsvQuote(JoinItems(schema, rule.antecedent)) << ','
        << CsvQuote(JoinItems(schema, rule.consequent)) << ','
        << StrFormat("%.6f,%.6f,%u,%u,%u", rule.support(), rule.confidence(),
                     rule.itemset_count, rule.antecedent_count,
                     rule.base_count);
    if (options.with_measures) {
      RuleMeasures m =
          ComputeMeasures(CountsForRule(dataset, subset.tids, rule));
      out << StrFormat(",%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f", m.lift,
                       m.cosine, m.kulczynski, m.all_confidence,
                       m.max_confidence, m.leverage, m.imbalance);
    }
    out << "\n";
  }
}

void RulesToJson(const Dataset& dataset, const RuleSet& rules,
                 const FocalSubset& subset, const ExportOptions& options,
                 std::ostream& out) {
  const Schema& schema = dataset.schema();
  out << "[";
  for (size_t i = 0; i < rules.rules.size(); ++i) {
    const Rule& rule = rules.rules[i];
    if (i > 0) out << ",";
    out << "\n  {\"antecedent\": \""
        << JsonEscape(JoinItems(schema, rule.antecedent))
        << "\", \"consequent\": \""
        << JsonEscape(JoinItems(schema, rule.consequent)) << "\", "
        << StrFormat("\"support\": %.6f, \"confidence\": %.6f, "
                     "\"itemset_count\": %u, \"antecedent_count\": %u, "
                     "\"base_count\": %u",
                     rule.support(), rule.confidence(), rule.itemset_count,
                     rule.antecedent_count, rule.base_count);
    if (options.with_measures) {
      RuleMeasures m =
          ComputeMeasures(CountsForRule(dataset, subset.tids, rule));
      out << StrFormat(", \"lift\": %.6f, \"cosine\": %.6f, "
                       "\"kulczynski\": %.6f, \"all_confidence\": %.6f, "
                       "\"max_confidence\": %.6f, \"leverage\": %.6f, "
                       "\"imbalance\": %.6f",
                       m.lift, m.cosine, m.kulczynski, m.all_confidence,
                       m.max_confidence, m.leverage, m.imbalance);
    }
    out << "}";
  }
  out << "\n]\n";
}

std::string RulesToCsvString(const Dataset& dataset, const RuleSet& rules,
                             const FocalSubset& subset,
                             const ExportOptions& options) {
  std::ostringstream out;
  RulesToCsv(dataset, rules, subset, options, out);
  return out.str();
}

std::string RulesToJsonString(const Dataset& dataset, const RuleSet& rules,
                              const FocalSubset& subset,
                              const ExportOptions& options) {
  std::ostringstream out;
  RulesToJson(dataset, rules, subset, options, out);
  return out.str();
}

}  // namespace colarm
