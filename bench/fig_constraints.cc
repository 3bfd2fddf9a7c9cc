// fig_constraints — what constraint pushdown buys over post-filtering.
//
// Each scenario runs the same constrained workload two ways over the chess
// analog:
//
//   pushdown     the constraints ride inside the query: CONTAIN seeds the
//                miner's focal subset, EXCLUDE projects the vertical view,
//                ANTECEDENT ATTRIBUTES and the measure floors gate rule
//                generation before materialization
//   post-filter  the unconstrained twin executes in full, then FilterRules
//                applies the same constraint set to the finished rule set
//                (the reference semantics the equivalence tests pin)
//
// The rule sets are identical by construction; this figure measures what
// the pushdown saves — wall time and, more durably, the deterministic
// effort counters (record checks, rules considered, local CFIs) — and
// appends one JSON line per scenario to the bench sink.
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/timer.h"
#include "harness.h"
#include "mining/constraints.h"

namespace colarm {
namespace bench {
namespace {

struct Scenario {
  const char* name;
  RuleConstraints constraints;
};

/// Constraint items come from the workload's own top rule (highest local
/// support in a probe run) so CONTAIN keeps a live sub-lattice and EXCLUDE
/// actually removes one — constraints over items absent from the frequent
/// structure would make both scenarios trivially empty or no-ops.
std::vector<Scenario> MakeScenarios(const Dataset& data,
                                    const RuleSet& probe) {
  const Schema& schema = data.schema();
  ItemId contain_item = schema.ItemOf(1, data.Value(0, 1));
  ItemId exclude_item = schema.ItemOf(2, data.Value(0, 2));
  const Rule* top = nullptr;
  for (const Rule& rule : probe.rules) {
    if (top == nullptr || rule.itemset_count > top->itemset_count) {
      top = &rule;
    }
  }
  if (top != nullptr) {
    contain_item = top->antecedent.front();
    exclude_item = top->consequent.front();
  }

  std::vector<Scenario> out;
  Scenario contain{"contain", {}};
  contain.constraints.must_contain = {contain_item};
  out.push_back(contain);
  Scenario exclude{"exclude", {}};
  exclude.constraints.must_exclude = {exclude_item};
  out.push_back(exclude);
  Scenario pinned{"antecedent-only", {}};
  pinned.constraints.antecedent_only = {schema.AttrOfItem(contain_item)};
  out.push_back(pinned);
  Scenario measures{"measure-floors", {}};
  measures.constraints.min_lift = 1.1;
  measures.constraints.min_kulczynski = 0.6;
  out.push_back(measures);
  return out;
}

struct Side {
  double ms = 0.0;
  uint64_t record_checks = 0;
  uint64_t rules_considered = 0;
  uint64_t local_cfis = 0;
  size_t rules = 0;
};

void Accumulate(Side* side, const PlanStats& stats) {
  side->record_checks += stats.record_checks;
  side->rules_considered += stats.rules_considered;
  side->local_cfis += stats.local_cfis;
}

std::vector<Tid> DqTids(const Dataset& data, const LocalizedQuery& query) {
  std::vector<Tid> tids;
  for (Tid t = 0; t < data.num_records(); ++t) {
    bool inside = true;
    for (const RangeSelection& range : query.ranges) {
      const ValueId v = data.Value(t, range.attr);
      if (v < range.lo || v > range.hi) {
        inside = false;
        break;
      }
    }
    if (inside) tids.push_back(t);
  }
  return tids;
}

void AppendJson(const BenchDataset& dataset, const Engine& engine,
                const char* scenario, size_t queries, const Side& push,
                const Side& post) {
  std::string path = JsonSinkPath();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH json sink %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  std::fprintf(
      out,
      "{\"dataset\":\"%s\",\"figure\":\"constraints\",\"records\":%u,"
      "\"scale\":%g,\"num_threads\":%u,"
      "\"scenario\":\"%s\",\"queries\":%zu,\"rules\":%zu,"
      "\"pushdown_ms\":%.3f,\"postfilter_ms\":%.3f,\"speedup\":%.2f,"
      "\"pushdown_effort\":{\"record_checks\":%llu,"
      "\"rules_considered\":%llu,\"local_cfis\":%llu},"
      "\"postfilter_effort\":{\"record_checks\":%llu,"
      "\"rules_considered\":%llu,\"local_cfis\":%llu}}\n",
      dataset.name.c_str(), dataset.data->num_records(), ScaleFromEnv(),
      engine.pool() != nullptr
          ? static_cast<unsigned>(engine.pool()->parallelism())
          : 1u,
      scenario, queries,
      push.rules, push.ms, post.ms, post.ms / std::max(push.ms, 1e-9),
      static_cast<unsigned long long>(push.record_checks),
      static_cast<unsigned long long>(push.rules_considered),
      static_cast<unsigned long long>(push.local_cfis),
      static_cast<unsigned long long>(post.record_checks),
      static_cast<unsigned long long>(post.rules_considered),
      static_cast<unsigned long long>(post.local_cfis));
  std::fclose(out);
}

int Main() {
  BenchDataset dataset = MakeChess();
  auto engine = BuildEngine(dataset);
  const Dataset& data = *dataset.data;

  // A drill-down workload per scenario: three focal placements at the
  // loosest paper minsupport, where rule volume (and thus the filtering
  // work the pushdown avoids) is largest.
  std::vector<LocalizedQuery> queries = MakeQueries(
      data, 0.2, dataset.minsupps.front(), dataset.minconf, 3);

  auto probe = engine->Execute(queries.front());
  if (!probe.ok()) {
    std::fprintf(stderr, "probe query failed: %s\n",
                 probe.status().ToString().c_str());
    return 1;
  }

  std::printf("constraint pushdown vs post-filter — %s, %zu quer(ies)\n",
              dataset.name.c_str(), queries.size());
  std::printf("%-16s %12s %12s %8s %16s %16s\n", "scenario", "push ms",
              "post ms", "speedup", "rules considered", "(post-filter)");

  for (const Scenario& scenario : MakeScenarios(data, probe->rules)) {
    Side push;
    Side post;
    const int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const LocalizedQuery& base : queries) {
        LocalizedQuery constrained = base;
        constrained.constraints = scenario.constraints;

        Timer push_timer;
        auto pushed = engine->Execute(constrained);
        if (!pushed.ok()) {
          std::fprintf(stderr, "constrained query failed: %s\n",
                       pushed.status().ToString().c_str());
          return 1;
        }
        push.ms += push_timer.ElapsedMillis();

        // The post-filter client: full unconstrained mine, then apply the
        // constraint set to the finished rules (DQ rescan included — the
        // consequent counts need it).
        Timer post_timer;
        auto plain = engine->Execute(base);
        if (!plain.ok()) {
          std::fprintf(stderr, "unconstrained query failed: %s\n",
                       plain.status().ToString().c_str());
          return 1;
        }
        std::vector<Tid> dq = DqTids(data, base);
        RuleSet filtered =
            FilterRules(data, dq, plain->rules, scenario.constraints);
        post.ms += post_timer.ElapsedMillis();

        if (rep == 0) {
          Accumulate(&push, pushed->stats);
          Accumulate(&post, plain->stats);
          push.rules += pushed->rules.rules.size();
          if (!pushed->rules.SameAs(filtered)) {
            std::fprintf(stderr,
                         "EQUIVALENCE VIOLATION in scenario %s — pushdown "
                         "and post-filter disagree\n",
                         scenario.name);
            return 1;
          }
        }
      }
    }
    push.ms /= kReps;
    post.ms /= kReps;
    std::printf("%-16s %12.3f %12.3f %7.2fx %16llu %16llu\n", scenario.name,
                push.ms, post.ms, post.ms / std::max(push.ms, 1e-9),
                static_cast<unsigned long long>(push.rules_considered),
                static_cast<unsigned long long>(post.rules_considered));
    AppendJson(dataset, *engine, scenario.name, queries.size(), push, post);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace colarm

int main() { return colarm::bench::Main(); }
