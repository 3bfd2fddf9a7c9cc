// Figure 13 analog: for each dataset and focal subset size, how many of
// the qualified closed frequent itemsets are *fresh local* discoveries
// (their global support fraction is below the query minsupport — they
// would be missed by any global run at the same threshold) versus
// *repeated global* itemsets. Paper shape: the majority of qualified CFIs
// in localized queries are fresh local ones — Simpson's-paradox evidence.
#include <cstdio>

#include "harness.h"
#include "plans/operators.h"

namespace colarm {
namespace bench {
namespace {

struct Split {
  uint64_t fresh = 0;
  uint64_t repeated = 0;
};

Split CountSplit(const Engine& engine, const LocalizedQuery& query) {
  Split split;
  PlanContext ctx(engine.index(), query, RuleGenOptions{},
                  OpSelect(engine.index(), query));
  if (ctx.subset.size() == 0) return split;
  CandidateSet cands = OpSupportedSearch(&ctx);
  auto qualified = OpEliminate(&ctx, cands.All());
  const uint32_t m = engine.index().dataset().num_records();
  const uint32_t global_min = MinCount(query.minsupp, m);
  for (const QualifiedItemset& q : qualified) {
    if (engine.index().mip(q.mip_id).global_count < global_min) {
      ++split.fresh;
    } else {
      ++split.repeated;
    }
  }
  return split;
}

void Run() {
  std::printf(
      "Figure 13 analog: fresh-local vs repeated-global qualified CFIs\n"
      "(fresh = local support clears minsupp but global support does "
      "not)\n\n");
  BenchDataset datasets[] = {MakeChess(), MakeMushroom(), MakePumsb()};
  for (const BenchDataset& dataset : datasets) {
    auto engine = BuildEngine(dataset);
    const double minsupp = dataset.minsupps.front();
    std::printf("%s (minsupp=%s, minconf=%s):\n", dataset.name.c_str(),
                FractionLabel(minsupp).c_str(),
                FractionLabel(dataset.minconf).c_str());
    std::printf("  %-8s %14s %18s\n", "DQ", "fresh-local",
                "repeated-global");
    for (double dq : {0.01, 0.1, 0.2, 0.5}) {
      Split total;
      auto queries = MakeQueries(*dataset.data, dq, minsupp, dataset.minconf,
                                 /*placements=*/3);
      for (const LocalizedQuery& query : queries) {
        Split s = CountSplit(*engine, query);
        total.fresh += s.fresh;
        total.repeated += s.repeated;
      }
      std::printf("  %-8s %14.1f %18.1f\n", FractionLabel(dq).c_str(),
                  static_cast<double>(total.fresh) / queries.size(),
                  static_cast<double>(total.repeated) / queries.size());
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace colarm

int main() {
  colarm::bench::Run();
  return 0;
}
