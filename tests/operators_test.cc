#include <gtest/gtest.h>

#include <set>

#include "plans/operators.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

// The index stores a pointer to the dataset, so the dataset's address must
// be stable: heap-allocate both.
struct Fixture {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<MipIndex> owned_index;
  MipIndex& index;

  static Fixture Make(uint64_t seed, double primary) {
    auto data = std::make_unique<Dataset>(RandomDataset(seed, 150, 5, 4));
    auto built = MipIndex::Build(*data, {.primary_support = primary});
    EXPECT_TRUE(built.ok());
    auto owned = std::make_unique<MipIndex>(std::move(built.value()));
    MipIndex& ref = *owned;
    return Fixture{std::move(data), std::move(owned), ref};
  }
};

LocalizedQuery MakeQuery() {
  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.3;
  query.minconf = 0.5;
  return query;
}

TEST(OperatorsTest, SearchFindsAllOverlappingMips) {
  Fixture fx = Fixture::Make(1, 0.2);
  LocalizedQuery query = MakeQuery();
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));

  CandidateSet cands = OpSearch(&ctx);
  const std::vector<uint32_t> all = cands.All().ToTids();
  std::set<uint32_t> actual(all.begin(), all.end());

  std::set<uint32_t> expected;
  for (uint32_t id = 0; id < fx.index.num_mips(); ++id) {
    if (ctx.subset.box.Intersects(fx.index.mip(id).bbox)) expected.insert(id);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_GT(ctx.rtree_stats.nodes_visited, 0u);
}

TEST(OperatorsTest, SearchSplitsContainmentCorrectly) {
  Fixture fx = Fixture::Make(2, 0.2);
  LocalizedQuery query = MakeQuery();
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));
  CandidateSet cands = OpSearch(&ctx);
  for (uint32_t id : cands.contained.ToTids()) {
    EXPECT_TRUE(ctx.subset.box.Contains(fx.index.mip(id).bbox));
  }
  for (uint32_t id : cands.overlapped.ToTids()) {
    EXPECT_FALSE(ctx.subset.box.Contains(fx.index.mip(id).bbox));
    EXPECT_TRUE(ctx.subset.box.Intersects(fx.index.mip(id).bbox));
  }
}

TEST(OperatorsTest, SupportedSearchIsSubsetOfSearch) {
  Fixture fx = Fixture::Make(3, 0.15);
  LocalizedQuery query = MakeQuery();
  query.minsupp = 0.8;
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));
  CandidateSet plain = OpSearch(&ctx);
  CandidateSet supported = OpSupportedSearch(&ctx);

  const std::vector<uint32_t> plain_ids = plain.All().ToTids();
  const std::vector<uint32_t> supp_ids = supported.All().ToTids();
  std::set<uint32_t> plain_set(plain_ids.begin(), plain_ids.end());
  std::set<uint32_t> supp_set(supp_ids.begin(), supp_ids.end());

  EXPECT_LE(supp_set.size(), plain_set.size());
  for (uint32_t id : supp_set) {
    EXPECT_TRUE(plain_set.contains(id));
    EXPECT_GE(fx.index.mip(id).global_count, ctx.local_min_count);
  }
  // Everything pruned was genuinely below the bound (Lemma 4.4).
  for (uint32_t id : plain_set) {
    if (!supp_set.contains(id)) {
      EXPECT_LT(fx.index.mip(id).global_count, ctx.local_min_count);
    }
  }
}

TEST(OperatorsTest, EliminateComputesExactLocalCounts) {
  Fixture fx = Fixture::Make(4, 0.2);
  LocalizedQuery query = MakeQuery();
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));
  CandidateSet cands = OpSearch(&ctx);
  auto qualified = OpEliminate(&ctx, cands.All());
  for (const QualifiedItemset& q : qualified) {
    uint32_t expected = 0;
    for (Tid t : ctx.subset.tids) {
      if (fx.index.dataset().ContainsAll(t, fx.index.mip(q.mip_id).items)) {
        ++expected;
      }
    }
    EXPECT_EQ(q.local_count, expected);
    EXPECT_GE(q.local_count, ctx.local_min_count);
  }
}

TEST(OperatorsTest, EliminateHonorsItemAttrFilter) {
  Fixture fx = Fixture::Make(5, 0.2);
  LocalizedQuery query = MakeQuery();
  query.item_attrs = {1, 2};
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));
  CandidateSet cands = OpSearch(&ctx);
  auto qualified = OpEliminate(&ctx, cands.All());
  const Schema& schema = fx.index.dataset().schema();
  for (const QualifiedItemset& q : qualified) {
    for (ItemId item : fx.index.mip(q.mip_id).items) {
      AttrId a = schema.AttrOfItem(item);
      EXPECT_TRUE(a == 1 || a == 2);
    }
  }
}

TEST(OperatorsTest, QualifyContainedUsesGlobalCounts) {
  Fixture fx = Fixture::Make(6, 0.2);
  LocalizedQuery query = MakeQuery();
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));
  CandidateSet cands = OpSupportedSearch(&ctx);
  auto qualified = QualifyContained(&ctx, cands.contained);
  for (const QualifiedItemset& q : qualified) {
    // Lemma 4.5: local count equals global count for contained MIPs.
    uint32_t expected = 0;
    for (Tid t : ctx.subset.tids) {
      if (fx.index.dataset().ContainsAll(t, fx.index.mip(q.mip_id).items)) {
        ++expected;
      }
    }
    EXPECT_EQ(q.local_count, fx.index.mip(q.mip_id).global_count);
    EXPECT_EQ(q.local_count, expected);
  }
}

TEST(OperatorsTest, UnionMergesAndSorts) {
  std::vector<QualifiedItemset> a = {{5, 1}, {1, 2}};
  std::vector<QualifiedItemset> b = {{3, 7}};
  auto merged = OpUnion(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].mip_id, 1u);
  EXPECT_EQ(merged[1].mip_id, 3u);
  EXPECT_EQ(merged[2].mip_id, 5u);
}

// Same rules, and the same price: SUPPORTED-VERIFY qualifies candidates by
// ELIMINATE's walk and runs VERIFY's step on each qualifier, so it charges
// exactly ELIMINATE + VERIFY. Both record-level routes.
TEST(OperatorsTest, SupportedVerifyEqualsEliminateThenVerify) {
  Fixture fx = Fixture::Make(7, 0.2);
  LocalizedQuery query = MakeQuery();
  for (bool dense : {false, true}) {
    PlanContext ctx1(fx.index, query, RuleGenOptions{},
                     OpSelect(fx.index, query));
    if (dense) ctx1.AdoptDqBitmap();
    CandidateSet cands1 = OpSearch(&ctx1);
    RuleSet via_ev;
    const std::vector<QualifiedItemset> qualified =
        OpEliminate(&ctx1, cands1.All());
    OpVerify(&ctx1, qualified, &via_ev);

    PlanContext ctx2(fx.index, query, RuleGenOptions{},
                     OpSelect(fx.index, query));
    if (dense) ctx2.AdoptDqBitmap();
    ASSERT_EQ(ctx2.dq() != nullptr, dense);
    CandidateSet cands2 = OpSearch(&ctx2);
    RuleSet via_vs;
    OpSupportedVerify(&ctx2, cands2.All(), &via_vs);

    EXPECT_TRUE(via_ev.SameAs(via_vs)) << dense;
    ASSERT_GT(cands2.total(), qualified.size()) << "no candidate disqualified";
    EXPECT_EQ(ctx1.record_checks, ctx2.record_checks) << dense;
  }
}

TEST(OperatorsTest, ArmMineMatchesEliminateQualification) {
  Fixture fx = Fixture::Make(8, 0.2);
  LocalizedQuery query = MakeQuery();
  PlanContext ctx1(fx.index, query, RuleGenOptions{},
                   OpSelect(fx.index, query));
  CandidateSet cands = OpSearch(&ctx1);
  auto via_eliminate = OpEliminate(&ctx1, cands.All());

  PlanContext ctx2(fx.index, query, RuleGenOptions{},
                   OpSelect(fx.index, query));
  auto via_arm = OpArmMine(&ctx2);
  EXPECT_GT(ctx2.local_cfis, 0u);

  ASSERT_EQ(via_arm.size(), via_eliminate.size());
  for (size_t i = 0; i < via_arm.size(); ++i) {
    EXPECT_EQ(via_arm[i].mip_id, via_eliminate[i].mip_id);
    EXPECT_EQ(via_arm[i].local_count, via_eliminate[i].local_count);
  }
}

TEST(OperatorsTest, ArmHonorsItemAttrFilter) {
  Fixture fx = Fixture::Make(11, 0.2);
  LocalizedQuery query = MakeQuery();
  query.item_attrs = {1, 3};
  PlanContext ctx(fx.index, query, RuleGenOptions{},
                  OpSelect(fx.index, query));
  auto qualified = OpArmMine(&ctx);
  EXPECT_FALSE(qualified.empty());
  const Schema& schema = fx.index.dataset().schema();
  for (const QualifiedItemset& q : qualified) {
    for (ItemId item : fx.index.mip(q.mip_id).items) {
      AttrId a = schema.AttrOfItem(item);
      EXPECT_TRUE(a == 1 || a == 3);
    }
  }
}

TEST(OperatorsTest, EmptySubsetShortCircuits) {
  Dataset data = RandomDataset(9, 50, 4, 4);
  auto index = MipIndex::Build(data, {.primary_support = 0.2});
  ASSERT_TRUE(index.ok());
  LocalizedQuery query;
  query.minsupp = 0.3;
  query.minconf = 0.5;
  // Choose an impossible conjunction by scanning for an absent pair.
  query.ranges = {{0, 3, 3}, {1, 3, 3}, {2, 3, 3}, {3, 3, 3}};
  PlanContext ctx(*index, query, RuleGenOptions{},
                  OpSelect(*index, query));
  if (ctx.subset.size() == 0) {
    auto arm = OpArmMine(&ctx);
    EXPECT_TRUE(arm.empty());
  }
}

}  // namespace
}  // namespace colarm
