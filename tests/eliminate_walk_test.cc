// ELIMINATE's IT-tree walk against the brute-force oracle: for any
// candidate list, the qualified list is exactly {candidate : local count >=
// local_min_count} in MIP-id order, with the exact counts, on both
// record-level routes and at 1, 2 and 8 threads — and the walk charges the
// same record checks on every route and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "plans/operators.h"
#include "testing/brute_force.h"
#include "testing/generator.h"
#include "test_util.h"

namespace colarm {
namespace {

// The oracle: each allowed candidate's support within DQ by a scan of the
// focal subset's records, kept when it reaches the local minimum.
std::vector<QualifiedItemset> OracleQualified(
    const PlanContext& ctx, std::span<const uint32_t> candidates) {
  std::vector<uint32_t> ids(candidates.begin(), candidates.end());
  std::sort(ids.begin(), ids.end());
  std::vector<QualifiedItemset> out;
  for (uint32_t id : ids) {
    if (!ctx.MipConstraintAllowed(id)) continue;
    const auto count = static_cast<uint32_t>(
        SupportingTids(ctx.index.dataset(), ctx.index.mip(id).items,
                       ctx.subset.tids)
            .size());
    if (count >= ctx.local_min_count) out.push_back({id, count});
  }
  return out;
}

// The candidate lists the plans hand to ELIMINATE: SEARCH's whole output
// (S-E-V, SS-E-V, the fused plans), its overlapped part only (SS-E-U-V),
// none, and an arbitrary unsorted subset of the MIPs.
std::vector<std::pair<std::string, std::vector<uint32_t>>> CandidateLists(
    const MipIndex& index, const LocalizedQuery& query, uint64_t seed) {
  PlanContext ctx(index, query, RuleGenOptions{}, OpSelect(index, query));
  const CandidateSet search = OpSearch(&ctx);
  const CandidateSet supported = OpSupportedSearch(&ctx);
  std::vector<uint32_t> sampled;
  Rng rng(seed);
  for (uint32_t id = index.num_mips(); id-- > 0;) {
    if (rng.Uniform(3) == 0) sampled.push_back(id);
  }
  return {{"search", search.All().ToTids()},
          {"overlapped", supported.overlapped.ToTids()},
          {"empty", {}},
          {"sampled", sampled}};
}

void ExpectWalkMatchesOracle(const MipIndex& index,
                             const LocalizedQuery& query, uint64_t seed,
                             const std::string& context) {
  for (const auto& [name, candidates] : CandidateLists(index, query, seed)) {
    std::optional<uint64_t> checks;
    std::optional<std::vector<QualifiedItemset>> want;
    for (unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      for (bool dense : {false, true}) {
        PlanContext ctx(index, query, RuleGenOptions{},
                        OpSelect(index, query), &pool);
        // Without the bitmap the walk keeps tid lists (the sparse route)
        // whatever DQ's density; with it, bitmaps when DQ is dense.
        if (dense) ctx.AdoptDqBitmap();
        const std::string where = context + " " + name + " threads=" +
                                  std::to_string(threads) +
                                  (ctx.dq() != nullptr ? " bitmap" : " tids");
        const std::vector<QualifiedItemset> got = OpEliminate(
            &ctx, Bitmap::FromTids(candidates, index.num_mips()));
        if (!want.has_value()) want = OracleQualified(ctx, candidates);
        ASSERT_EQ(got.size(), want->size()) << where;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].mip_id, (*want)[i].mip_id) << where;
          EXPECT_EQ(got[i].local_count, (*want)[i].local_count) << where;
        }
        if (candidates.empty()) {
          EXPECT_EQ(ctx.record_checks, 0u) << where;
        }
        if (!checks.has_value()) checks = ctx.record_checks;
        EXPECT_EQ(ctx.record_checks, *checks) << where;
      }
    }
  }
}

// Generated cases: skewed, correlated and sparse relations, boundary boxes
// (empty, point, full domain) and constrained queries.
TEST(EliminateWalkTest, MatchesOracleOnGeneratedCases) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const fuzzing::FuzzCase fuzz = fuzzing::GenerateFuzzCase(seed);
    auto index = MipIndex::Build(fuzz.dataset,
                                 {.primary_support = fuzz.primary_support});
    ASSERT_TRUE(index.ok()) << seed;
    for (size_t q = 0; q < fuzz.queries.size(); ++q) {
      if (!fuzz.queries[q].Validate(fuzz.dataset.schema()).ok()) continue;
      ExpectWalkMatchesOracle(*index, fuzz.queries[q], seed * 31 + q,
                              "seed=" + std::to_string(seed) +
                                  " query=" + std::to_string(q));
    }
  }
}

// A deeper trie with many first-level branches, so the parallel walk splits
// into several runs, on boxes on both sides of the density bar.
TEST(EliminateWalkTest, MatchesOracleOnADeepTrie) {
  const Dataset data = testing_util::RandomDataset(5, 800, 6, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.03});
  ASSERT_TRUE(index.ok());
  ASSERT_GT(index->num_mips(), 300u);
  for (ValueId hi : {0, 1, 2}) {
    for (double minsupp : {0.05, 0.2}) {
      LocalizedQuery query;
      query.ranges = {{0, 0, hi}, {1, 0, 1}};
      query.minsupp = minsupp;
      query.minconf = 0.5;
      ExpectWalkMatchesOracle(*index, query, hi,
                              "hi=" + std::to_string(hi) +
                                  " minsupp=" + std::to_string(minsupp));
    }
  }
}

// The index's IT-tree lists its entries depth-first in MIP-id order: each
// node's entry range holds exactly the MIPs of its subtree, its own first.
// The walk's output order is the MIP-id order its callers rely on.
TEST(EliminateWalkTest, DepthFirstEntryRangesAreMipIdRanges) {
  const Dataset data = testing_util::RandomDataset(6, 400, 6, 3);
  auto index = MipIndex::Build(data, {.primary_support = 0.05});
  ASSERT_TRUE(index.ok());
  const auto nodes = index->ittree().depth_first();
  EXPECT_EQ(nodes[0].entry_begin, 0u);
  EXPECT_EQ(nodes[0].entry_end, index->num_mips());
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    std::vector<uint32_t> below;
    for (uint32_t j = i; j < nodes[i].subtree_end; ++j) {
      if (nodes[j].entry != ITTree::kNoEntry) below.push_back(nodes[j].entry);
    }
    std::vector<uint32_t> range(nodes[i].entry_end - nodes[i].entry_begin);
    std::iota(range.begin(), range.end(), nodes[i].entry_begin);
    EXPECT_EQ(below, range) << i;
  }
}

}  // namespace
}  // namespace colarm
