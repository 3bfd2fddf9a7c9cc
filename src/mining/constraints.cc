#include "mining/constraints.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace colarm {

namespace {

bool SortedDupFree(std::span<const AttrId> ids) {
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) return false;
  }
  return true;
}

Status ValidateItemList(const Schema& schema, const Itemset& items,
                        const char* clause) {
  for (ItemId item : items) {
    if (item >= schema.num_items()) {
      return Status::OutOfRange(
          StrFormat("%s item %u out of range", clause, item));
    }
  }
  if (!ItemsetIsValid(items)) {
    return Status::InvalidArgument(
        StrFormat("%s items must be sorted and duplicate-free", clause));
  }
  return Status::OK();
}

Status ValidateMeasure(double value, const char* name) {
  if (!std::isfinite(value) || value < 0.0) {
    return Status::InvalidArgument(
        StrFormat("%s must be finite and >= 0", name));
  }
  return Status::OK();
}

}  // namespace

Status RuleConstraints::Validate(const Schema& schema) const {
  Status status = ValidateItemList(schema, must_contain, "CONTAIN");
  if (!status.ok()) return status;
  status = ValidateItemList(schema, must_exclude, "EXCLUDE");
  if (!status.ok()) return status;
  for (AttrId a : antecedent_only) {
    if (a >= schema.num_attributes()) {
      return Status::OutOfRange(
          StrFormat("ANTECEDENT attribute %u out of range", a));
    }
  }
  if (!SortedDupFree(antecedent_only)) {
    return Status::InvalidArgument(
        "ANTECEDENT ATTRIBUTES must be sorted and duplicate-free");
  }
  status = ValidateMeasure(min_lift, "minlift");
  if (!status.ok()) return status;
  status = ValidateMeasure(min_cosine, "mincosine");
  if (!status.ok()) return status;
  status = ValidateMeasure(min_kulczynski, "minkulczynski");
  if (!status.ok()) return status;
  status = ValidateMeasure(min_antecedent_supp, "minantsupp");
  if (!status.ok()) return status;
  if (min_antecedent_supp > 1.0) {
    return Status::InvalidArgument("minantsupp must be at most 1");
  }
  return Status::OK();
}

std::string RuleConstraints::ToString(const Schema& schema) const {
  std::string out;
  if (!must_contain.empty()) {
    out += " AND CONTAIN ";
    AppendItemset(schema, must_contain, &out);
  }
  if (!must_exclude.empty()) {
    out += " AND EXCLUDE ";
    AppendItemset(schema, must_exclude, &out);
  }
  if (!antecedent_only.empty()) {
    out += " AND ANTECEDENT ATTRIBUTES {";
    for (size_t i = 0; i < antecedent_only.size(); ++i) {
      if (i > 0) out += ", ";
      out += schema.attribute(antecedent_only[i]).name;
    }
    out += "}";
  }
  if (min_lift > 0.0) out += StrFormat(" AND minlift=%.2f", min_lift);
  if (min_cosine > 0.0) out += StrFormat(" AND mincosine=%.2f", min_cosine);
  if (min_kulczynski > 0.0) {
    out += StrFormat(" AND minkulczynski=%.2f", min_kulczynski);
  }
  if (min_antecedent_supp > 0.0) {
    out += StrFormat(" AND minantsupp=%.2f", min_antecedent_supp);
  }
  return out;
}

bool ItemsetSatisfiesConstraints(std::span<const ItemId> items,
                                 const RuleConstraints& constraints) {
  if (!constraints.must_contain.empty() &&
      !ItemsetIsSubset(constraints.must_contain, items)) {
    return false;
  }
  if (!constraints.must_exclude.empty() &&
      !ItemsetDisjoint(constraints.must_exclude, items)) {
    return false;
  }
  return true;
}

bool PassesMeasureFloors(const RuleCounts& counts,
                         const RuleConstraints& constraints) {
  // The antecedent floor is an exact integer comparison against the local
  // threshold, mirroring the minsupport convention (MinCount of the focal
  // subset), so every evaluation site agrees bit-for-bit.
  if (constraints.min_antecedent_supp > 0.0 &&
      counts.antecedent <
          MinCount(constraints.min_antecedent_supp, counts.base)) {
    return false;
  }
  // Same slack as the minconfidence comparison, so a floor set to the
  // exact measure value of a rule keeps that rule.
  if (constraints.min_lift > 0.0 &&
      Lift(counts) + 1e-12 < constraints.min_lift) {
    return false;
  }
  if (constraints.min_cosine > 0.0 &&
      Cosine(counts) + 1e-12 < constraints.min_cosine) {
    return false;
  }
  if (constraints.min_kulczynski > 0.0 &&
      Kulczynski(counts) + 1e-12 < constraints.min_kulczynski) {
    return false;
  }
  return true;
}

RuleSet FilterRules(const Dataset& dataset, std::span<const Tid> tids,
                    const RuleSet& unconstrained,
                    const RuleConstraints& constraints) {
  const Schema& schema = dataset.schema();
  RuleSet out;
  for (const Rule& rule : unconstrained.rules) {
    const Itemset itemset = ItemsetUnion(rule.antecedent, rule.consequent);
    if (!ItemsetSatisfiesConstraints(itemset, constraints)) continue;
    if (!constraints.antecedent_only.empty()) {
      bool pinned_in_consequent = false;
      for (ItemId item : rule.consequent) {
        if (std::binary_search(constraints.antecedent_only.begin(),
                               constraints.antecedent_only.end(),
                               schema.AttrOfItem(item))) {
          pinned_in_consequent = true;
          break;
        }
      }
      if (pinned_in_consequent) continue;
    }
    if (constraints.HasMeasures() &&
        !PassesMeasureFloors(CountsForRule(dataset, tids, rule),
                             constraints)) {
      continue;
    }
    out.rules.push_back(rule);
  }
  out.Canonicalize();
  return out;
}

}  // namespace colarm
