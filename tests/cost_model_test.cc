#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/optimizer.h"
#include "cost/cost_model.h"
#include "data/histogram.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

struct Fixture {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<MipIndex> index;
  std::unique_ptr<CardinalityEstimator> cardinality;
  std::unique_ptr<CostModel> model;

  static Fixture Make(uint64_t seed) {
    Fixture fx;
    fx.data = std::make_unique<Dataset>(RandomDataset(seed, 300, 5, 4));
    auto built = MipIndex::Build(*fx.data, {.primary_support = 0.2});
    EXPECT_TRUE(built.ok());
    fx.index = std::make_unique<MipIndex>(std::move(built.value()));
    fx.cardinality = std::make_unique<CardinalityEstimator>(
        fx.data->schema(), fx.index->histograms(), fx.data->num_records());
    fx.model = std::make_unique<CostModel>(fx.index->stats(), *fx.cardinality,
                                           CostConstants{});
    return fx;
  }
};

LocalizedQuery Query(double minsupp, std::vector<RangeSelection> ranges) {
  LocalizedQuery query;
  query.minsupp = minsupp;
  query.minconf = 0.8;
  query.ranges = std::move(ranges);
  return query;
}

TEST(CardinalityTest, FullDomainSelectsAll) {
  Fixture fx = Fixture::Make(1);
  LocalizedQuery query = Query(0.5, {});
  EXPECT_DOUBLE_EQ(fx.cardinality->SubsetFraction(query), 1.0);
  EXPECT_DOUBLE_EQ(fx.cardinality->SubsetSize(query),
                   fx.data->num_records());
}

TEST(CardinalityTest, SingleAttributeExactFromHistogram) {
  Fixture fx = Fixture::Make(2);
  LocalizedQuery query = Query(0.5, {{0, 0, 0}});
  uint32_t actual = 0;
  for (Tid t = 0; t < fx.data->num_records(); ++t) {
    if (fx.data->Value(t, 0) == 0) ++actual;
  }
  EXPECT_NEAR(fx.cardinality->SubsetSize(query), actual, 1e-9);
}

TEST(CardinalityTest, PairPredicatesUseExactJointStatistics) {
  // Attribute domains here are small, so a joint histogram covers the
  // pair: the two-attribute estimate must be *exact*, not the
  // independence product.
  Fixture fx = Fixture::Make(3);
  LocalizedQuery query = Query(0.5, {{0, 0, 1}, {1, 0, 1}});
  uint32_t actual = 0;
  for (Tid t = 0; t < fx.data->num_records(); ++t) {
    if (fx.data->Value(t, 0) <= 1 && fx.data->Value(t, 1) <= 1) ++actual;
  }
  EXPECT_NEAR(fx.cardinality->SubsetSize(query), actual, 1e-9);
}

TEST(CardinalityTest, JointStatisticsCatchCorrelation) {
  // A perfectly correlated pair: independence would square the
  // selectivity; the joint histogram must see through it.
  Dataset data{Schema(std::vector<Attribute>{
      {"x", {"a", "b"}},
      {"y", {"a", "b"}},
  })};
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(data.AddRecord({0, 0}).ok());
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(data.AddRecord({1, 1}).ok());
  DatasetHistograms hists(data);
  CardinalityEstimator est(data.schema(), hists, data.num_records());
  LocalizedQuery query = Query(0.5, {{0, 0, 0}, {1, 0, 0}});
  // True selectivity is 0.5 (x=a implies y=a); independence says 0.25.
  EXPECT_NEAR(est.SubsetFraction(query), 0.5, 1e-12);
}

TEST(CardinalityTest, QueryExtentsNormalized) {
  Fixture fx = Fixture::Make(4);
  auto extents = fx.cardinality->QueryExtents(Query(0.5, {{2, 0, 1}}));
  ASSERT_EQ(extents.size(), 5u);
  EXPECT_DOUBLE_EQ(extents[2], 0.5);  // 2 of 4 values
  EXPECT_DOUBLE_EQ(extents[0], 1.0);
}

TEST(CostModelTest, AllPlansGetPositiveFiniteCosts) {
  Fixture fx = Fixture::Make(5);
  auto all = fx.model->EstimateAll(Query(0.5, {{0, 0, 1}}));
  for (const PlanCostEstimate& est : all) {
    EXPECT_GT(est.total, 0.0) << PlanKindName(est.plan);
    EXPECT_TRUE(std::isfinite(est.total)) << PlanKindName(est.plan);
    EXPECT_FALSE(est.ToString().empty());
  }
}

// SELECT ORs one relation-wide bitmap per value in range on each narrowed
// attribute, whatever the plan: the term is equal across all six plans, so
// it shifts every total alike and cannot move plan choice.
TEST(CostModelTest, SelectTermIsPlanUniformBitmapWords) {
  Fixture fx = Fixture::Make(5);
  const double words = std::ceil(fx.data->num_records() / 64.0);
  // Attribute 0 narrowed to 2 values, attribute 1 to 3; attribute 2's range
  // spans its whole domain and narrows nothing.
  auto all =
      fx.model->EstimateAll(Query(0.5, {{0, 0, 1}, {1, 1, 3}, {2, 0, 3}}));
  for (const PlanCostEstimate& est : all) {
    EXPECT_EQ(est.select, all[0].select) << PlanKindName(est.plan);
  }
  EXPECT_DOUBLE_EQ(all[0].select,
                   5 * words * CostConstants{}.bitmap_word_ns);
  EXPECT_EQ(fx.model->Estimate(PlanKind::kSEV, Query(0.5, {})).select, 0.0);
}

TEST(CostModelTest, SupportedSearchNeverCostsMoreCandidates) {
  Fixture fx = Fixture::Make(6);
  for (double minsupp : {0.3, 0.5, 0.8, 0.95}) {
    auto sev = fx.model->Estimate(PlanKind::kSEV, Query(minsupp, {{0, 0, 1}}));
    auto ssev =
        fx.model->Estimate(PlanKind::kSSEV, Query(minsupp, {{0, 0, 1}}));
    EXPECT_LE(ssev.est_candidates, sev.est_candidates + 1e-9);
  }
}

TEST(CostModelTest, HigherMinsuppShrinksSupportedCandidates) {
  Fixture fx = Fixture::Make(7);
  auto low = fx.model->Estimate(PlanKind::kSSEV, Query(0.3, {{0, 0, 1}}));
  auto high = fx.model->Estimate(PlanKind::kSSEV, Query(0.95, {{0, 0, 1}}));
  EXPECT_LE(high.est_candidates, low.est_candidates + 1e-9);
}

TEST(CostModelTest, SmallerSubsetReducesArmCost) {
  Fixture fx = Fixture::Make(8);
  auto narrow =
      fx.model->Estimate(PlanKind::kARM, Query(0.5, {{0, 0, 0}, {1, 0, 0}}));
  auto wide = fx.model->Estimate(PlanKind::kARM, Query(0.5, {}));
  EXPECT_LT(narrow.mine, wide.mine);
  EXPECT_LE(narrow.est_subset_size, wide.est_subset_size);
}

TEST(CostModelTest, ContainedEstimateBounded) {
  Fixture fx = Fixture::Make(9);
  auto est = fx.model->Estimate(PlanKind::kSSEUV, Query(0.4, {{0, 0, 2}}));
  EXPECT_GE(est.est_contained, 0.0);
  EXPECT_LE(est.est_contained, est.est_candidates + 1e-9);
}

// ELIMINATE is priced by the route its estimated |DQ| selects: row probes
// (record_item_check_ns) below the density bar, bitmap words
// (bitmap_word_ns) above it — and each route only by its own constant.
TEST(CostModelTest, EstimatesDependOnConstants) {
  Fixture fx = Fixture::Make(10);
  const LocalizedQuery sparse = Query(0.4, {{0, 1, 1}, {1, 1, 1}, {2, 1, 1}});
  const LocalizedQuery dense = Query(0.4, {{0, 0, 1}});
  auto estimated_dense = [&](const LocalizedQuery& query) {
    const auto size =
        static_cast<uint64_t>(fx.cardinality->SubsetSize(query));
    return IsDense(size, fx.data->num_records());
  };
  ASSERT_FALSE(estimated_dense(sparse));
  ASSERT_TRUE(estimated_dense(dense));

  CostConstants probes;
  probes.record_item_check_ns = 1000.0;
  CostModel pricey_probes(fx.index->stats(), *fx.cardinality, probes);
  CostConstants words;
  words.bitmap_word_ns = 1000.0;
  CostModel pricey_words(fx.index->stats(), *fx.cardinality, words);

  const double sparse_base =
      fx.model->Estimate(PlanKind::kSEV, sparse).eliminate;
  EXPECT_GT(pricey_probes.Estimate(PlanKind::kSEV, sparse).eliminate,
            sparse_base);
  EXPECT_EQ(pricey_words.Estimate(PlanKind::kSEV, sparse).eliminate,
            sparse_base);

  const double dense_base =
      fx.model->Estimate(PlanKind::kSEV, dense).eliminate;
  EXPECT_GT(pricey_words.Estimate(PlanKind::kSEV, dense).eliminate,
            dense_base);
  EXPECT_EQ(pricey_probes.Estimate(PlanKind::kSEV, dense).eliminate,
            dense_base);
}

// SUPPORTED-VERIFY runs ELIMINATE's count per candidate and VERIFY's step
// per qualifier, so S-VS and SS-VS price exactly as S-E-V and SS-E-V, and
// the tie keeps the unfused plan. Swept over thresholds, constrained and
// unconstrained queries, on both sides of the density bar.
TEST(CostModelTest, SupportedVerifyPricesAsEliminateThenVerify) {
  Fixture fx = Fixture::Make(12);
  const Schema& schema = fx.data->schema();
  const Optimizer optimizer(*fx.model);
  size_t dense_queries = 0;
  size_t sparse_queries = 0;
  for (const std::vector<RangeSelection>& ranges :
       {std::vector<RangeSelection>{{0, 1, 1}, {1, 1, 1}, {2, 1, 1}},
        std::vector<RangeSelection>{{0, 0, 1}},
        std::vector<RangeSelection>{}}) {
    for (bool constrained : {false, true}) {
      for (double minsupp : {0.2, 0.4, 0.7, 0.95}) {
        LocalizedQuery query = Query(minsupp, ranges);
        if (constrained) {
          query.item_attrs = {1, 2, 3, 4};
          query.constraints.must_contain = {schema.ItemOf(3, 0)};
          query.constraints.min_lift = 1.1;
          query.constraints.min_antecedent_supp = 0.3;
        }
        const auto size =
            static_cast<uint64_t>(fx.cardinality->SubsetSize(query));
        ++(IsDense(size, fx.data->num_records()) ? dense_queries
                                                 : sparse_queries);
        const std::string context =
            query.ToString(schema) + (constrained ? " constrained" : "");
        for (auto [unfused, fused] :
             {std::pair{PlanKind::kSEV, PlanKind::kSVS},
              std::pair{PlanKind::kSSEV, PlanKind::kSSVS}}) {
          const PlanCostEstimate e = fx.model->Estimate(unfused, query);
          const PlanCostEstimate f = fx.model->Estimate(fused, query);
          EXPECT_EQ(f.total, e.total) << context;
          EXPECT_EQ(f.eliminate, 0.0) << context;
          EXPECT_EQ(f.verify, e.eliminate + e.verify) << context;
          EXPECT_EQ(f.search, e.search) << context;
        }
        const PlanKind chosen = optimizer.Choose(query).chosen;
        EXPECT_NE(chosen, PlanKind::kSVS) << context;
        EXPECT_NE(chosen, PlanKind::kSSVS) << context;
      }
    }
  }
  EXPECT_GT(dense_queries, 0u);
  EXPECT_GT(sparse_queries, 0u);
}

TEST(CalibrationTest, ProducesPositiveConstants) {
  Dataset data = RandomDataset(11, 500, 5, 4);
  CostConstants constants = Calibrate(data);
  EXPECT_GT(constants.record_item_check_ns, 0.0);
  EXPECT_GT(constants.rtree_box_check_ns, 0.0);
  EXPECT_GT(constants.mine_cell_ns, 0.0);
  EXPECT_GT(constants.rule_check_ns, 0.0);
}

TEST(CalibrationTest, DegenerateDatasetFallsBackToDefaults) {
  Dataset tiny{Schema({{"a", {"x"}}, {"b", {"y"}}})};
  ASSERT_TRUE(tiny.AddRecord({0, 0}).ok());
  CostConstants constants = Calibrate(tiny);
  CostConstants defaults;
  EXPECT_DOUBLE_EQ(constants.record_item_check_ns,
                   defaults.record_item_check_ns);
}

}  // namespace
}  // namespace colarm
