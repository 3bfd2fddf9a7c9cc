#ifndef COLARM_TESTS_TEST_UTIL_H_
#define COLARM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "mining/rule.h"
#include "mip/mip_index.h"
#include "plans/plans.h"
#include "plans/query.h"

namespace colarm {
namespace testing_util {

/// Small random relational dataset for property tests: `n_attrs` attributes
/// with `domain` values each, mildly skewed so frequent itemsets exist.
inline Dataset RandomDataset(uint64_t seed, uint32_t records, uint32_t n_attrs,
                             uint32_t domain) {
  std::vector<Attribute> attrs;
  for (uint32_t a = 0; a < n_attrs; ++a) {
    Attribute attr;
    attr.name = "a" + std::to_string(a);
    for (uint32_t v = 0; v < domain; ++v) {
      attr.values.push_back("v" + std::to_string(v));
    }
    attrs.push_back(std::move(attr));
  }
  Dataset dataset{Schema(std::move(attrs))};
  Rng rng(seed);
  std::vector<ValueId> record(n_attrs);
  for (uint32_t r = 0; r < records; ++r) {
    for (uint32_t a = 0; a < n_attrs; ++a) {
      // Skew toward value 0 so itemsets clear realistic thresholds.
      record[a] = rng.Bernoulli(0.6)
                      ? 0
                      : static_cast<ValueId>(rng.Uniform(domain));
    }
    Status st = dataset.AddRecord(record);
    if (!st.ok()) std::abort();
  }
  return dataset;
}

/// The counters the determinism contract covers: parallel and batched
/// execution must report the exact effort the sequential path reports, not
/// merely the same rules.
inline void ExpectSameEffort(const PlanStats& seq, const PlanStats& par,
                             const std::string& context) {
  EXPECT_EQ(seq.subset_size, par.subset_size) << context;
  EXPECT_EQ(seq.local_min_count, par.local_min_count) << context;
  EXPECT_EQ(seq.candidates_search, par.candidates_search) << context;
  EXPECT_EQ(seq.candidates_contained, par.candidates_contained) << context;
  EXPECT_EQ(seq.candidates_qualified, par.candidates_qualified) << context;
  EXPECT_EQ(seq.record_checks, par.record_checks) << context;
  EXPECT_EQ(seq.rtree_nodes_visited, par.rtree_nodes_visited) << context;
  EXPECT_EQ(seq.rtree_pruned_by_support, par.rtree_pruned_by_support)
      << context;
  EXPECT_EQ(seq.rules_considered, par.rules_considered) << context;
  EXPECT_EQ(seq.rules_emitted, par.rules_emitted) << context;
  EXPECT_EQ(seq.itemsets_skipped, par.itemsets_skipped) << context;
  EXPECT_EQ(seq.local_cfis, par.local_cfis) << context;
}

/// Reference implementation of the localized-mining contract (DESIGN.md
/// §2): qualified prestored CFIs by exact local scans, rules by exhaustive
/// antecedent enumeration. Quadratic and proud of it — tests only.
inline RuleSet ReferenceLocalizedRules(const MipIndex& index,
                                       const LocalizedQuery& query) {
  const Dataset& dataset = index.dataset();
  const Schema& schema = dataset.schema();
  const Rect box = query.ToRect(schema);
  std::vector<Tid> tids;
  for (Tid t = 0; t < dataset.num_records(); ++t) {
    bool inside = true;
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      ValueId v = dataset.Value(t, a);
      if (v < box.lo(a) || v > box.hi(a)) {
        inside = false;
        break;
      }
    }
    if (inside) tids.push_back(t);
  }
  RuleSet out;
  if (tids.empty()) return out;
  const uint32_t min_count =
      MinCount(query.minsupp, static_cast<uint32_t>(tids.size()));
  std::vector<bool> allowed = query.ItemAttrMask(schema);

  auto local_count = [&](std::span<const ItemId> items) {
    uint32_t count = 0;
    for (Tid t : tids) {
      if (dataset.ContainsAll(t, items)) ++count;
    }
    return count;
  };

  for (uint32_t id = 0; id < index.num_mips(); ++id) {
    const Mip& mip = index.mip(id);
    bool attrs_ok = true;
    for (ItemId item : mip.items) {
      if (!allowed[schema.AttrOfItem(item)]) {
        attrs_ok = false;
        break;
      }
    }
    if (!attrs_ok || mip.items.size() < 2 || mip.items.size() > 31) continue;
    uint32_t count = local_count(mip.items);
    if (count < min_count) continue;
    const uint32_t full = (1u << mip.items.size()) - 1;
    for (uint32_t mask = 1; mask < full; ++mask) {
      Itemset antecedent;
      Itemset consequent;
      for (size_t i = 0; i < mip.items.size(); ++i) {
        if (mask & (1u << i)) {
          antecedent.push_back(mip.items[i]);
        } else {
          consequent.push_back(mip.items[i]);
        }
      }
      uint32_t acount = local_count(antecedent);
      if (acount == 0) continue;
      double conf = static_cast<double>(count) / acount;
      if (conf + 1e-12 < query.minconf) continue;
      out.rules.push_back(Rule{antecedent, consequent, count, acount,
                               static_cast<uint32_t>(tids.size())});
    }
  }
  out.Canonicalize();
  return out;
}

}  // namespace testing_util
}  // namespace colarm

#endif  // COLARM_TESTS_TEST_UTIL_H_
