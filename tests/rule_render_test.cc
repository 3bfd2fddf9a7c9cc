// The canonical rule order and the one-pass rule writer: byte identity
// against a printf-based reference, and a total, input-order-independent
// Canonicalize().

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/explain.h"
#include "data/salary_dataset.h"
#include "mining/rule.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

// The rendering the writer replaces: labels built per item, percentages
// through StrFormat("%.1f").
std::string ReferenceItemset(const Schema& schema, const Itemset& items) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    const AttrId a = schema.AttrOfItem(items[i]);
    out += schema.attribute(a).name + "=" +
           schema.attribute(a).values[schema.ValueOfItem(items[i])];
  }
  return out + "}";
}

std::string ReferenceRule(const Schema& schema, const Rule& rule) {
  return ReferenceItemset(schema, rule.antecedent) + " => " +
         ReferenceItemset(schema, rule.consequent) +
         StrFormat(" (supp=%.1f%%, conf=%.1f%%)", rule.support() * 100.0,
                   rule.confidence() * 100.0);
}

// Random disjoint (X, Y) over `schema` with at most one item per
// attribute, and counts with itemset <= antecedent <= base.
Rule RandomRule(const Schema& schema, Rng* rng) {
  Rule rule;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const uint64_t pick = rng->Uniform(3);
    if (pick == 0) continue;
    const ItemId item = schema.ItemOf(
        a, static_cast<ValueId>(rng->Uniform(schema.attribute(a).domain_size())));
    (pick == 1 ? rule.antecedent : rule.consequent).push_back(item);
  }
  rule.base_count = static_cast<uint32_t>(rng->Uniform(200));
  rule.antecedent_count =
      static_cast<uint32_t>(rng->Uniform(uint64_t{rule.base_count} + 1));
  rule.itemset_count =
      static_cast<uint32_t>(rng->Uniform(uint64_t{rule.antecedent_count} + 1));
  return rule;
}

TEST(AppendFixedTest, MatchesPrintfOnHalfwayAndRandomValues) {
  std::vector<double> values = {0.0,    100.0,  12.5,   6.25,  7.5,
                                0.05,   0.15,   0.25,   0.35,  99.95,
                                33.35,  66.65,  1e-9,   1e15,  123.456,
                                -0.0,   -12.25, 5e-324, 4294967295.5,
                                4294967296.0,   0.5,    2.5,   1e-300};
  // Exact half-way percentages and their neighbours: n/d * 100 the way
  // Rule::support() computes it.
  const uint32_t halfway[][2] = {{1, 8}, {1, 16}, {3, 40}, {3, 16},
                                 {5, 16}, {7, 80}, {1, 32}, {13, 400}};
  for (const auto& [n, d] : halfway) {
    values.push_back(static_cast<double>(n) / d * 100.0);
  }
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const auto d = static_cast<uint32_t>(1 + rng.Uniform(5000));
    const auto n = static_cast<uint32_t>(rng.Uniform(uint64_t{d} + 1));
    values.push_back(static_cast<double>(n) / d * 100.0);
  }
  for (double v : values) {
    for (int precision : {0, 1, 2, 6, 9}) {
      std::string got;
      AppendFixed(v, precision, &got);
      EXPECT_EQ(got, StrFormat("%.*f", precision, v)) << v;
    }
  }
  for (double v : {1e300, -1e-300, 1.0 / 0.0}) {  // outside the fast path
    std::string got;
    AppendFixed(v, 1, &got);
    EXPECT_EQ(got, StrFormat("%.1f", v));
  }
}

TEST(RuleWriterTest, MatchesReferenceByteForByte) {
  Dataset data = RandomDataset(3, 1, 7, 12);
  const Schema& schema = data.schema();
  Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    const Rule rule = RandomRule(schema, &rng);
    std::string got;
    AppendRule(schema, rule, &got);
    ASSERT_EQ(got, ReferenceRule(schema, rule));
    EXPECT_EQ(rule.ToString(schema), got);
  }
}

TEST(RuleWriterTest, HalfwayPercentagesAndMultiItemSets) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  const Itemset x = {schema.ItemOf(0, 0), schema.ItemOf(2, 2),
                     schema.ItemOf(4, 0)};
  const Itemset y = {schema.ItemOf(3, 1), schema.ItemOf(5, 2)};
  for (const Rule& rule : {Rule{x, y, 1, 8, 16}, Rule{x, y, 3, 40, 40},
                           Rule{y, x, 2, 16, 16}, Rule{x, y, 0, 0, 0}}) {
    std::string got;
    AppendRule(schema, rule, &got);
    EXPECT_EQ(got, ReferenceRule(schema, rule));
  }
  std::string one;
  AppendRule(schema, Rule{x, y, 1, 8, 16}, &one);
  EXPECT_EQ(one,
            "{Company=IBM, Location=Seattle, Age=20-30} => "
            "{Gender=F, Salary=90K-120K} (supp=6.2%, conf=12.5%)");
}

TEST(RuleWriterTest, ListingMatchesReferenceInGivenOrder) {
  Dataset data = RandomDataset(5, 1, 6, 9);
  const Schema& schema = data.schema();
  Rng rng(99);
  RuleSet rules;
  for (int i = 0; i < 300; ++i) rules.rules.push_back(RandomRule(schema, &rng));
  for (size_t limit : {size_t{0}, size_t{1}, size_t{10}, size_t{300},
                       size_t{500}}) {
    std::string want;
    const size_t shown = limit == 0 ? 300 : std::min<size_t>(limit, 300);
    for (size_t i = 0; i < shown; ++i) {
      want += "  " + ReferenceRule(schema, rules.rules[i]) + "\n";
    }
    if (shown < 300) want += StrFormat("  ... and %zu more rules\n", 300 - shown);
    EXPECT_EQ(FormatRules(schema, rules, limit), want) << limit;
    std::string appended = "header\n";
    AppendRules(schema, rules, limit, &appended);
    EXPECT_EQ(appended, "header\n" + want);
  }
}

TEST(SchemaLabelTest, EveryLabelAndTheJoinedList) {
  Dataset data = MakeSalaryDataset();
  const Schema& schema = data.schema();
  const Itemset items = {schema.ItemOf(4, 0), schema.ItemOf(5, 2)};
  std::string out;
  AppendItems(schema, items, ";", &out);
  EXPECT_EQ(out, "Age=20-30;Salary=90K-120K");
  for (ItemId item = 0; item < schema.num_items(); ++item) {
    EXPECT_EQ("{" + std::string(schema.ItemLabel(item)) + "}",
              ReferenceItemset(schema, {item}));
  }
}

// Exact three-way ratio comparison for the checks below, independent of
// the implementation's.
int Cmp(uint32_t n1, uint32_t d1, uint32_t n2, uint32_t d2) {
  const uint64_t l = d1 == 0 ? 0 : uint64_t{n1} * (d2 == 0 ? 1 : d2);
  const uint64_t r = d2 == 0 ? 0 : uint64_t{n2} * (d1 == 0 ? 1 : d1);
  return (l > r) - (l < r);
}

// The canonical order as specified, written plainly.
bool SpecLess(const Rule& a, const Rule& b) {
  if (int c = Cmp(a.itemset_count, a.base_count, b.itemset_count,
                  b.base_count)) {
    return c > 0;
  }
  if (int c = Cmp(a.itemset_count, a.antecedent_count, b.itemset_count,
                  b.antecedent_count)) {
    return c > 0;
  }
  if (a.antecedent != b.antecedent) return a.antecedent < b.antecedent;
  if (a.consequent != b.consequent) return a.consequent < b.consequent;
  return std::tie(a.itemset_count, a.antecedent_count, a.base_count) <
         std::tie(b.itemset_count, b.antecedent_count, b.base_count);
}

bool SameRuleAndCounts(const Rule& x, const Rule& y) {
  return x.SameRule(y) && x.itemset_count == y.itemset_count &&
         x.antecedent_count == y.antecedent_count &&
         x.base_count == y.base_count;
}

// Canonicalize() against a plain sort by SpecLess, on `base` and on
// shuffles of it.
void ExpectMatchesSpec(const RuleSet& base) {
  RuleSet want = base;
  std::sort(want.rules.begin(), want.rules.end(), SpecLess);
  for (uint64_t seed = 0; seed <= 10; ++seed) {
    RuleSet got = base;
    Rng shuffle(seed);
    for (size_t i = got.rules.size(); seed > 0 && i > 1; --i) {
      std::swap(got.rules[i - 1], got.rules[shuffle.Uniform(i)]);
    }
    got.Canonicalize();
    ASSERT_EQ(got.rules.size(), want.rules.size());
    for (size_t i = 0; i < got.rules.size(); ++i) {
      ASSERT_TRUE(SameRuleAndCounts(got.rules[i], want.rules[i]))
          << "shuffle " << seed << " position " << i;
    }
  }
}

TEST(CanonicalOrderTest, ShuffledInputsGiveIdenticalOutput) {
  Dataset data = RandomDataset(8, 1, 5, 3);
  const Schema& schema = data.schema();
  Rng rng(7);
  RuleSet base;
  // Few distinct counts over mixed base_counts, so support and confidence
  // ties (and equal ratios from different counts, 1/2 vs 2/4) abound.
  for (int i = 0; i < 2000; ++i) {
    Rule rule = RandomRule(schema, &rng);
    rule.base_count = static_cast<uint32_t>(rng.Uniform(5)) * 4;
    rule.antecedent_count = std::min<uint32_t>(
        rule.base_count, static_cast<uint32_t>(rng.Uniform(5)) * 2);
    rule.itemset_count = std::min<uint32_t>(
        rule.antecedent_count, static_cast<uint32_t>(rng.Uniform(5)));
    base.rules.push_back(std::move(rule));
  }
  ExpectMatchesSpec(base);
  RuleSet once = base;
  once.Canonicalize();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RuleSet shuffled = base;
    Rng shuffle(seed);
    for (size_t i = shuffled.rules.size(); i > 1; --i) {
      std::swap(shuffled.rules[i - 1], shuffled.rules[shuffle.Uniform(i)]);
    }
    shuffled.Canonicalize();
    EXPECT_EQ(FormatRules(schema, shuffled), FormatRules(schema, once));
  }
}

// Item comparisons the packed key heads cannot settle: long itemsets that
// share long prefixes, ids near UINT32_MAX (32-bit elements, four per
// key) and repeated (X, Y) pairs with different counts.
TEST(CanonicalOrderTest, LongSharedPrefixesAndWideIds) {
  for (const std::vector<ItemId>& pool :
       {std::vector<ItemId>{0, 30, 31},
        std::vector<ItemId>{7, 4000000000u, 4294967293u}}) {
    Rng rng(pool.back());
    RuleSet base;
    for (int i = 0; i < 1500; ++i) {
      Rule rule;
      // Strictly increasing ids: a long run of the pool's first id (offset
      // by position), then one draw, so most itemsets share a long prefix.
      const size_t x_len = 1 + rng.Uniform(20);
      for (size_t k = 0; k + 1 < x_len; ++k) {
        rule.antecedent.push_back(pool[0] + static_cast<ItemId>(k));
      }
      rule.antecedent.push_back(pool[1 + rng.Uniform(pool.size() - 1)] +
                                static_cast<ItemId>(rng.Uniform(2)));
      rule.consequent = {static_cast<ItemId>(pool[0] + 100 + rng.Uniform(3))};
      rule.base_count = 8;
      rule.antecedent_count = 4 + static_cast<uint32_t>(rng.Uniform(2)) * 4;
      rule.itemset_count = 2 * (1 + static_cast<uint32_t>(rng.Uniform(2)));
      if (rng.Uniform(4) == 0) {  // the same ratios over doubled counts
        rule.base_count *= 2;
        rule.antecedent_count *= 2;
        rule.itemset_count *= 2;
      }
      base.rules.push_back(std::move(rule));
    }
    ExpectMatchesSpec(base);
  }
}

TEST(CanonicalOrderTest, TiesOrderByAntecedentThenConsequent) {
  // All four tie on support (3/10) and confidence (3/6 == 1/2 exactly).
  RuleSet rules;
  rules.rules = {Rule{{2}, {5}, 3, 6, 10}, Rule{{1, 4}, {6}, 3, 6, 10},
                 Rule{{1}, {7}, 3, 6, 10}, Rule{{1}, {3}, 3, 6, 10},
                 // Higher confidence, same support: first.
                 Rule{{9}, {1}, 3, 5, 10},
                 // Higher support over a different base: before everything.
                 Rule{{9}, {2}, 2, 4, 5}};
  rules.Canonicalize();
  const std::vector<Itemset> antecedents = {{9}, {9}, {1}, {1}, {1, 4}, {2}};
  const std::vector<Itemset> consequents = {{2}, {1}, {3}, {7}, {6}, {5}};
  ASSERT_EQ(rules.rules.size(), antecedents.size());
  for (size_t i = 0; i < rules.rules.size(); ++i) {
    EXPECT_EQ(rules.rules[i].antecedent, antecedents[i]) << i;
    EXPECT_EQ(rules.rules[i].consequent, consequents[i]) << i;
  }
}

TEST(CanonicalOrderTest, ZeroDenominatorsRankAsZero) {
  RuleSet rules;
  rules.rules = {Rule{{1}, {2}, 0, 0, 0},   // support 0, confidence 0
                 Rule{{1}, {3}, 1, 1, 50},  // support 2%, confidence 100%
                 Rule{{0}, {2}, 0, 3, 9},   // support 0, confidence 0
                 Rule{{2}, {1}, 5, 0, 0}};  // zero denominators: both 0
  rules.Canonicalize();
  EXPECT_EQ(rules.rules[0].consequent, (Itemset{3}));
  // The three zero-support, zero-confidence rules tie and order by X, Y.
  EXPECT_EQ(rules.rules[1].antecedent, (Itemset{0}));
  EXPECT_EQ(rules.rules[2].antecedent, (Itemset{1}));
  EXPECT_EQ(rules.rules[3].antecedent, (Itemset{2}));
}

TEST(CanonicalOrderTest, LargeCountsCompareWithoutRounding) {
  // 4294967291/4294967293 and 4294967289/4294967291 differ by ~2e-19,
  // below double resolution near 1; cross-multiplication still orders them.
  RuleSet rules;
  rules.rules = {Rule{{1}, {2}, 4294967289u, 4294967289u, 4294967291u},
                 Rule{{3}, {4}, 4294967291u, 4294967291u, 4294967293u}};
  ASSERT_EQ(rules.rules[0].support(), rules.rules[1].support());
  rules.Canonicalize();
  EXPECT_EQ(rules.rules[0].antecedent, (Itemset{3}));
}

}  // namespace
}  // namespace colarm
