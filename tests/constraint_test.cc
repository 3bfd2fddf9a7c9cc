// Constraint-pushdown semantics tests (DESIGN.md §6.7): item constraints
// and measure floors pushed into execution must equal the post-filter
// reference FilterRules(unconstrained run), including the degenerate
// corners — contradictory constraint sets, constraints that eliminate
// every item, empty vocabularies — and ratio-exact measure boundaries
// where the floor sits exactly on a rule's computed measure.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "mining/constraints.h"
#include "mining/measures.h"
#include "plans/plans.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

RuleGenOptions WideRuleGen() {
  RuleGenOptions options;
  options.max_itemset_length = 31;
  return options;
}

/// The focal subset straight from the RANGE predicates.
std::vector<Tid> DqTids(const Dataset& dataset, const LocalizedQuery& query) {
  std::vector<Tid> tids;
  for (Tid t = 0; t < dataset.num_records(); ++t) {
    bool inside = true;
    for (const RangeSelection& range : query.ranges) {
      const ValueId v = dataset.Value(t, range.attr);
      if (v < range.lo || v > range.hi) {
        inside = false;
        break;
      }
    }
    if (inside) tids.push_back(t);
  }
  return tids;
}

/// Post-filter reference: mine the unconstrained twin, then FilterRules.
RuleSet FilteredReference(const MipIndex& index, const LocalizedQuery& query) {
  LocalizedQuery twin = query;
  twin.constraints = RuleConstraints{};
  auto unconstrained =
      ExecutePlan(PlanKind::kSEV, index, twin, WideRuleGen());
  EXPECT_TRUE(unconstrained.ok());
  const std::vector<Tid> dq = DqTids(index.dataset(), query);
  return FilterRules(index.dataset(), dq, unconstrained->rules,
                     query.constraints);
}

/// All six plans must return exactly the post-filter reference.
void ExpectAllPlansMatchFiltered(const MipIndex& index,
                                 const LocalizedQuery& query) {
  const RuleSet expected = FilteredReference(index, query);
  for (PlanKind kind : kAllPlans) {
    auto result = ExecutePlan(kind, index, query, WideRuleGen());
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    EXPECT_TRUE(result->rules.SameAs(expected))
        << PlanKindName(kind) << " on "
        << query.ToString(index.dataset().schema()) << ": got "
        << result->rules.rules.size() << " rules, filtered reference "
        << expected.rules.size();
  }
}

bool ContainsRule(const RuleSet& rules, const Rule& rule) {
  return std::any_of(rules.rules.begin(), rules.rules.end(),
                     [&](const Rule& r) { return r.SameRule(rule); });
}

LocalizedQuery BaseQuery() {
  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.25;
  query.minconf = 0.4;
  return query;
}

// An Empty() constraint set must leave execution byte-identical to the
// unconstrained engine: same rules AND same effort counters, so every
// pushdown site is provably gated on Empty().
TEST(ConstraintTest, EmptyConstraintsAreByteIdentical) {
  Dataset data = RandomDataset(101, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  LocalizedQuery plain = BaseQuery();
  LocalizedQuery wired = plain;
  wired.constraints = RuleConstraints{};  // explicitly-empty constraint set
  ASSERT_TRUE(wired.constraints.Empty());
  for (PlanKind kind : kAllPlans) {
    auto a = ExecutePlan(kind, *index, plain, WideRuleGen());
    auto b = ExecutePlan(kind, *index, wired, WideRuleGen());
    ASSERT_TRUE(a.ok() && b.ok()) << PlanKindName(kind);
    EXPECT_TRUE(a->rules.SameAs(b->rules)) << PlanKindName(kind);
    EXPECT_EQ(a->stats.record_checks, b->stats.record_checks)
        << PlanKindName(kind);
    EXPECT_EQ(a->stats.rules_considered, b->stats.rules_considered)
        << PlanKindName(kind);
    EXPECT_EQ(a->stats.rules_emitted, b->stats.rules_emitted)
        << PlanKindName(kind);
    EXPECT_EQ(a->stats.itemsets_skipped, b->stats.itemsets_skipped)
        << PlanKindName(kind);
    EXPECT_EQ(a->stats.local_cfis, b->stats.local_cfis)
        << PlanKindName(kind);
  }
}

// An item in both CONTAIN and EXCLUDE is well-formed but denotes the empty
// rule set; every plan must short-circuit to zero rules without scanning.
TEST(ConstraintTest, ContradictoryContainExcludeYieldsNothing) {
  Dataset data = RandomDataset(102, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  const ItemId item = data.schema().ItemOf(1, 0);
  LocalizedQuery query = BaseQuery();
  query.constraints.must_contain = {item};
  query.constraints.must_exclude = {item};
  ASSERT_TRUE(query.constraints.Validate(data.schema()).ok());
  ASSERT_TRUE(query.ConstraintsPrecludeRules(data.schema()));
  for (PlanKind kind : kAllPlans) {
    auto result = ExecutePlan(kind, *index, query, WideRuleGen());
    ASSERT_TRUE(result.ok()) << PlanKindName(kind);
    EXPECT_TRUE(result->rules.rules.empty()) << PlanKindName(kind);
    EXPECT_EQ(result->stats.rules_considered, 0u) << PlanKindName(kind);
  }
  ExpectAllPlansMatchFiltered(*index, query);
}

// Two CONTAIN items on one attribute can never co-occur in a record.
TEST(ConstraintTest, TwoContainItemsOnOneAttributePrecludeRules) {
  Dataset data = RandomDataset(103, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  LocalizedQuery query = BaseQuery();
  query.constraints.must_contain = {data.schema().ItemOf(2, 0),
                                    data.schema().ItemOf(2, 1)};
  ASSERT_TRUE(query.ConstraintsPrecludeRules(data.schema()));
  ExpectAllPlansMatchFiltered(*index, query);
}

// CONTAIN item whose value the focal box excludes: no DQ record can hold
// it, so the plan short-circuits before touching the R-tree.
TEST(ConstraintTest, ContainOutsideFocalBoxPrecludesRules) {
  Dataset data = RandomDataset(104, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  LocalizedQuery query = BaseQuery();  // attr 0 restricted to [0, 1]
  query.constraints.must_contain = {data.schema().ItemOf(0, 2)};
  ASSERT_TRUE(query.ConstraintsPrecludeRules(data.schema()));
  ExpectAllPlansMatchFiltered(*index, query);
}

// CONTAIN item of an attribute outside the item vocabulary ("empty vocab"
// for that constraint): no emitted itemset can ever contain it.
TEST(ConstraintTest, ContainOutsideVocabularyPrecludesRules) {
  Dataset data = RandomDataset(105, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  LocalizedQuery query = BaseQuery();
  query.item_attrs = {0, 1};  // vocabulary excludes attributes 2 and 3
  query.constraints.must_contain = {data.schema().ItemOf(3, 0)};
  ASSERT_TRUE(query.ConstraintsPrecludeRules(data.schema()));
  ExpectAllPlansMatchFiltered(*index, query);
}

// EXCLUDE covering every item of the schema eliminates the whole
// vocabulary: zero rules on every plan, matching the filtered reference.
TEST(ConstraintTest, ExcludeAllItemsEliminatesEverything) {
  Dataset data = RandomDataset(106, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  LocalizedQuery query = BaseQuery();
  for (ItemId item = 0; item < data.schema().num_items(); ++item) {
    query.constraints.must_exclude.push_back(item);
  }
  ASSERT_TRUE(query.constraints.Validate(data.schema()).ok());
  const RuleSet expected = FilteredReference(*index, query);
  EXPECT_TRUE(expected.rules.empty());
  ExpectAllPlansMatchFiltered(*index, query);
}

// ANTECEDENT ATTRIBUTES pinning: the pinned attribute never appears in a
// consequent, and the result still equals the post-filter reference.
TEST(ConstraintTest, AntecedentOnlyPinsAttributeToLeftSide) {
  for (uint64_t seed : {111u, 112u, 113u}) {
    Dataset data = RandomDataset(seed, 90, 4, 3);
    auto index = MipIndex::Build(data, {.primary_support = 0.2});
    ASSERT_TRUE(index.ok());
    LocalizedQuery query = BaseQuery();
    query.constraints.antecedent_only = {1};
    ExpectAllPlansMatchFiltered(*index, query);
    auto result = ExecutePlan(PlanKind::kSEV, *index, query, WideRuleGen());
    ASSERT_TRUE(result.ok());
    for (const Rule& rule : result->rules.rules) {
      for (ItemId item : rule.consequent) {
        EXPECT_NE(data.schema().AttrOfItem(item), 1u)
            << "pinned attribute leaked into a consequent";
      }
    }
  }
}

// CONTAIN / EXCLUDE on live items: results must equal the post-filter
// reference, and every surviving rule's itemset obeys the constraints.
TEST(ConstraintTest, ContainAndExcludeMatchPostFilter) {
  for (uint64_t seed : {121u, 122u, 123u, 124u}) {
    Dataset data = RandomDataset(seed, 90, 4, 3);
    auto index = MipIndex::Build(data, {.primary_support = 0.2});
    ASSERT_TRUE(index.ok());
    LocalizedQuery query = BaseQuery();
    query.constraints.must_contain = {data.schema().ItemOf(1, 0)};
    query.constraints.must_exclude = {data.schema().ItemOf(3, 1)};
    ASSERT_TRUE(query.constraints.Validate(data.schema()).ok());
    ExpectAllPlansMatchFiltered(*index, query);
    auto result = ExecutePlan(PlanKind::kARM, *index, query, WideRuleGen());
    ASSERT_TRUE(result.ok());
    for (const Rule& rule : result->rules.rules) {
      Itemset itemset = rule.antecedent;
      itemset.insert(itemset.end(), rule.consequent.begin(),
                     rule.consequent.end());
      std::sort(itemset.begin(), itemset.end());
      EXPECT_TRUE(ItemsetSatisfiesConstraints(itemset, query.constraints));
    }
  }
}

/// Ratio-exact boundary check for one measure floor: with the floor set to
/// the rule's exactly-computed measure the rule survives (the +1e-12 slack
/// mirrors minconfidence), and with the floor nudged above the slack it is
/// dropped. Both sides must still equal the post-filter reference.
void CheckMeasureBoundary(const MipIndex& index, const LocalizedQuery& base,
                          double RuleConstraints::* floor,
                          double (*measure)(const RuleCounts&)) {
  auto unconstrained =
      ExecutePlan(PlanKind::kSEV, index, base, WideRuleGen());
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_FALSE(unconstrained->rules.rules.empty());
  const std::vector<Tid> dq = DqTids(index.dataset(), base);

  // Pick the rule with the largest measure so "floor == measure" keeps it
  // and any nudge above the slack drops it.
  const Rule* pick = nullptr;
  double value = 0.0;
  for (const Rule& rule : unconstrained->rules.rules) {
    const double m = measure(CountsForRule(index.dataset(), dq, rule));
    if (pick == nullptr || m > value) {
      pick = &rule;
      value = m;
    }
  }
  ASSERT_NE(pick, nullptr);
  ASSERT_GT(value, 0.0);

  LocalizedQuery exact = base;
  exact.constraints.*floor = value;  // floor sits exactly on the measure
  ExpectAllPlansMatchFiltered(index, exact);
  auto kept = ExecutePlan(PlanKind::kSEV, index, exact, WideRuleGen());
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(ContainsRule(kept->rules, *pick))
      << "rule dropped at floor == its exact measure " << value;

  LocalizedQuery above = base;
  above.constraints.*floor = value + 1e-6;  // clears the 1e-12 slack
  ExpectAllPlansMatchFiltered(index, above);
  auto dropped = ExecutePlan(PlanKind::kSEV, index, above, WideRuleGen());
  ASSERT_TRUE(dropped.ok());
  EXPECT_FALSE(ContainsRule(dropped->rules, *pick))
      << "rule survived a floor above its measure " << value;
}

TEST(ConstraintTest, LiftFloorIsRatioExact) {
  Dataset data = RandomDataset(131, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  CheckMeasureBoundary(*index, BaseQuery(), &RuleConstraints::min_lift,
                       &Lift);
}

TEST(ConstraintTest, CosineFloorIsRatioExact) {
  Dataset data = RandomDataset(132, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  CheckMeasureBoundary(*index, BaseQuery(), &RuleConstraints::min_cosine,
                       &Cosine);
}

TEST(ConstraintTest, KulczynskiFloorIsRatioExact) {
  Dataset data = RandomDataset(133, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  CheckMeasureBoundary(*index, BaseQuery(),
                       &RuleConstraints::min_kulczynski, &Kulczynski);
}

// HAVING minantsupp: the antecedent-support floor pushed into rule
// generation must equal the post-filter reference on every plan, and the
// generator must prune floored antecedents *before* the rules_considered
// counter (cheaper than confidence, so it runs first).
TEST(ConstraintTest, AntecedentSupportFloorMatchesPostFilter) {
  for (uint64_t seed : {151u, 152u, 153u}) {
    Dataset data = RandomDataset(seed, 90, 4, 3);
    auto index = MipIndex::Build(data, {.primary_support = 0.2});
    ASSERT_TRUE(index.ok());
    LocalizedQuery query = BaseQuery();
    query.constraints.min_antecedent_supp = 0.45;
    ASSERT_TRUE(query.Validate(data.schema()).ok());
    ExpectAllPlansMatchFiltered(*index, query);

    LocalizedQuery twin = query;
    twin.constraints = RuleConstraints{};
    auto constrained =
        ExecutePlan(PlanKind::kSEV, *index, query, WideRuleGen());
    auto unconstrained =
        ExecutePlan(PlanKind::kSEV, *index, twin, WideRuleGen());
    ASSERT_TRUE(constrained.ok() && unconstrained.ok());
    EXPECT_LE(constrained->stats.rules_considered,
              unconstrained->stats.rules_considered);
    for (const Rule& rule : constrained->rules.rules) {
      EXPECT_GE(rule.antecedent_count,
                MinCount(query.constraints.min_antecedent_supp,
                         rule.base_count));
    }
  }
}

// The floor is count-exact (integer MinCount semantics, like minsupport):
// a floor sitting exactly on a rule's antecedent support keeps it, the
// next representable step above drops it.
TEST(ConstraintTest, AntecedentSupportFloorIsCountExact) {
  Dataset data = RandomDataset(154, 90, 4, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  const LocalizedQuery base = BaseQuery();
  auto unconstrained =
      ExecutePlan(PlanKind::kSEV, *index, base, WideRuleGen());
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_FALSE(unconstrained->rules.rules.empty());

  const Rule* pick = nullptr;
  for (const Rule& rule : unconstrained->rules.rules) {
    if (pick == nullptr || rule.antecedent_count > pick->antecedent_count) {
      pick = &rule;
    }
  }
  ASSERT_NE(pick, nullptr);
  const double n = static_cast<double>(pick->base_count);

  LocalizedQuery exact = base;
  exact.constraints.min_antecedent_supp =
      static_cast<double>(pick->antecedent_count) / n;
  ExpectAllPlansMatchFiltered(*index, exact);
  auto kept = ExecutePlan(PlanKind::kSEV, *index, exact, WideRuleGen());
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(ContainsRule(kept->rules, *pick))
      << "rule dropped at floor == its exact antecedent support";

  LocalizedQuery above = base;
  above.constraints.min_antecedent_supp =
      (static_cast<double>(pick->antecedent_count) + 0.5) / n;
  ExpectAllPlansMatchFiltered(*index, above);
  auto dropped = ExecutePlan(PlanKind::kSEV, *index, above, WideRuleGen());
  ASSERT_TRUE(dropped.ok());
  EXPECT_FALSE(ContainsRule(dropped->rules, *pick))
      << "rule survived a floor above its antecedent support";
}

TEST(ConstraintTest, AntecedentSupportFloorValidation) {
  Dataset data = RandomDataset(155, 60, 4, 3);
  RuleConstraints floor;
  floor.min_antecedent_supp = 0.3;
  EXPECT_TRUE(floor.Validate(data.schema()).ok());
  EXPECT_TRUE(floor.HasMeasures());
  EXPECT_FALSE(floor.Empty());

  RuleConstraints over;
  over.min_antecedent_supp = 1.5;  // a support fraction cannot exceed 1
  EXPECT_FALSE(over.Validate(data.schema()).ok());
  RuleConstraints negative;
  negative.min_antecedent_supp = -0.1;
  EXPECT_FALSE(negative.Validate(data.schema()).ok());
}

// Combined constraint sets across several seeds and focal boxes — the
// small deterministic sweep the sanitizer tiers replay.
TEST(ConstraintTest, CombinedConstraintSweepMatchesPostFilter) {
  for (uint64_t seed : {141u, 142u, 143u}) {
    Dataset data = RandomDataset(seed, 80, 4, 3);
    auto index = MipIndex::Build(data, {.primary_support = 0.2});
    ASSERT_TRUE(index.ok());
    LocalizedQuery query;
    query.ranges = {{static_cast<AttrId>(seed % 4), 0, 1}};
    query.minsupp = 0.2;
    query.minconf = 0.3;
    query.constraints.must_contain = {data.schema().ItemOf(1, 0)};
    query.constraints.must_exclude = {data.schema().ItemOf(2, 2)};
    query.constraints.antecedent_only = {3};
    query.constraints.min_kulczynski = 0.4;
    query.constraints.min_antecedent_supp = 0.3;
    ASSERT_TRUE(query.Validate(data.schema()).ok());
    ExpectAllPlansMatchFiltered(*index, query);
  }
}

}  // namespace
}  // namespace colarm
