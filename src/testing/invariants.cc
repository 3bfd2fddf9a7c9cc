#include "testing/invariants.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "mining/constraints.h"
#include "mip/serialize.h"
#include "plans/plans.h"

namespace colarm {
namespace fuzzing {

namespace {

/// Match the oracle's exhaustive antecedent cap so both sides skip the
/// same (over-long) itemsets.
RuleGenOptions WideRuleGen(const OracleOptions& oracle) {
  RuleGenOptions options;
  options.max_itemset_length = oracle.max_itemset_length;
  return options;
}

/// First-difference summary between two canonicalized rule sets.
std::string DiffRuleSets(const Schema& schema, const RuleSet& got,
                         const RuleSet& want) {
  std::string out = StrFormat("%zu rules vs %zu expected", got.rules.size(),
                              want.rules.size());
  const size_t n = std::min(got.rules.size(), want.rules.size());
  for (size_t i = 0; i < n; ++i) {
    const Rule& g = got.rules[i];
    const Rule& w = want.rules[i];
    if (!g.SameRule(w) || g.itemset_count != w.itemset_count ||
        g.antecedent_count != w.antecedent_count ||
        g.base_count != w.base_count) {
      return out + "; first diff at #" + std::to_string(i) + ": got " +
             g.ToString(schema) + " want " + w.ToString(schema);
    }
  }
  if (got.rules.size() > want.rules.size()) {
    return out + "; first extra: " + got.rules[n].ToString(schema);
  }
  if (want.rules.size() > got.rules.size()) {
    return out + "; first missing: " + want.rules[n].ToString(schema);
  }
  return out;
}

/// First-difference summary between the deterministic effort counters of
/// two runs of the same plan (timings are excluded: they are the only
/// fields allowed to differ between thread counts and SIMD levels).
std::string DiffEffort(const PlanStats& got, const PlanStats& want) {
  auto diff = [](const char* name, uint64_t g, uint64_t w) {
    return StrFormat("%s: %llu vs %llu expected", name,
                     static_cast<unsigned long long>(g),
                     static_cast<unsigned long long>(w));
  };
  if (got.subset_size != want.subset_size)
    return diff("subset_size", got.subset_size, want.subset_size);
  if (got.local_min_count != want.local_min_count)
    return diff("local_min_count", got.local_min_count, want.local_min_count);
  if (got.candidates_search != want.candidates_search)
    return diff("candidates_search", got.candidates_search,
                want.candidates_search);
  if (got.candidates_contained != want.candidates_contained)
    return diff("candidates_contained", got.candidates_contained,
                want.candidates_contained);
  if (got.candidates_qualified != want.candidates_qualified)
    return diff("candidates_qualified", got.candidates_qualified,
                want.candidates_qualified);
  if (got.record_checks != want.record_checks)
    return diff("record_checks", got.record_checks, want.record_checks);
  if (got.rtree_nodes_visited != want.rtree_nodes_visited)
    return diff("rtree_nodes_visited", got.rtree_nodes_visited,
                want.rtree_nodes_visited);
  if (got.rtree_pruned_by_support != want.rtree_pruned_by_support)
    return diff("rtree_pruned_by_support", got.rtree_pruned_by_support,
                want.rtree_pruned_by_support);
  if (got.rules_considered != want.rules_considered)
    return diff("rules_considered", got.rules_considered,
                want.rules_considered);
  if (got.rules_emitted != want.rules_emitted)
    return diff("rules_emitted", got.rules_emitted, want.rules_emitted);
  if (got.itemsets_skipped != want.itemsets_skipped)
    return diff("itemsets_skipped", got.itemsets_skipped,
                want.itemsets_skipped);
  return {};
}

using RuleKey = std::pair<Itemset, Itemset>;

std::map<RuleKey, const Rule*> IndexRules(const RuleSet& rules) {
  std::map<RuleKey, const Rule*> by_key;
  for (const Rule& rule : rules.rules) {
    by_key[{rule.antecedent, rule.consequent}] = &rule;
  }
  return by_key;
}

/// A strictly tighter focal box derived deterministically from `query`:
/// narrow the first shrinkable range, or constrain a fresh attribute.
/// Returns false when no tightening is possible (all ranges are points on
/// every attribute already).
bool TightenQuery(const Schema& schema, LocalizedQuery* query) {
  for (RangeSelection& range : query->ranges) {
    if (range.hi > range.lo) {
      --range.hi;
      return true;
    }
  }
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    bool constrained = false;
    for (const auto& r : query->ranges) constrained |= (r.attr == a);
    if (constrained) continue;
    const uint32_t domain = schema.attribute(a).domain_size();
    if (domain < 2) continue;
    query->ranges.push_back({a, 0, static_cast<ValueId>(domain - 2)});
    return true;
  }
  return false;
}

}  // namespace

std::string Violation::ToString() const {
  return StrFormat("[%s] query #%zu: %s", invariant.c_str(), query_index,
                   detail.c_str());
}

std::vector<Violation> CheckCase(const FuzzCase& fuzz_case,
                                 const CheckOptions& options) {
  std::vector<Violation> violations;
  auto fail = [&](const char* invariant, size_t query_index,
                  std::string detail) {
    violations.push_back({invariant, query_index, std::move(detail)});
  };

  const Dataset& dataset = fuzz_case.dataset;
  const Schema& schema = dataset.schema();
  MipIndexOptions index_options;
  index_options.primary_support = fuzz_case.primary_support;
  auto index = MipIndex::Build(dataset, index_options);
  if (!index.ok()) {
    fail("index-build", 0, index.status().ToString());
    return violations;
  }
  const RuleGenOptions rulegen = WideRuleGen(options.oracle);

  auto run_plan = [&](const MipIndex& idx, PlanKind kind,
                      const LocalizedQuery& query,
                      ThreadPool* pool) -> Result<PlanResult> {
    PlanExecOptions exec;
    exec.rulegen = rulegen;
    exec.pool = pool;
    return ExecutePlan(kind, idx, query, exec);
  };

  // Pools are created once; each sweep reuses them across queries/plans.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  if (options.check_threads) {
    for (unsigned n : options.thread_counts) {
      if (n > 1) pools.push_back(std::make_unique<ThreadPool>(n));
    }
  }

  // Thread-invariance of the offline build itself (PR 1's contract).
  if (!pools.empty()) {
    auto parallel_index =
        MipIndex::Build(dataset, index_options, pools.back().get());
    if (!parallel_index.ok()) {
      fail("thread-invariance", 0,
           "parallel index build failed: " + parallel_index.status().ToString());
    } else if (parallel_index->num_mips() != index->num_mips()) {
      fail("thread-invariance", 0,
           StrFormat("parallel build has %u MIPs, sequential %u",
                     parallel_index->num_mips(), index->num_mips()));
    } else {
      for (uint32_t id = 0; id < index->num_mips(); ++id) {
        const Mip& a = parallel_index->mip(id);
        const Mip& b = index->mip(id);
        if (a.items != b.items || a.global_count != b.global_count ||
            a.bbox != b.bbox) {
          fail("thread-invariance", 0,
               StrFormat("parallel build diverges at MIP %u", id));
          break;
        }
      }
    }
  }

  // Serialize -> load round-trip: identical MIPs, identical answers.
  std::filesystem::path dump;
  Result<MipIndex> loaded = Status::OK();
  if (options.check_serialize) {
    dump = std::filesystem::temp_directory_path() /
           StrFormat("colarm_fuzz_%d_%llu.clrm", static_cast<int>(getpid()),
                     static_cast<unsigned long long>(fuzz_case.seed));
    Status saved = SaveMipIndex(*index, dump.string());
    if (!saved.ok()) {
      fail("serialize-roundtrip", 0, "save failed: " + saved.ToString());
    } else {
      loaded = LoadMipIndex(dataset, dump.string());
      if (!loaded.ok()) {
        fail("serialize-roundtrip", 0,
             "load failed: " + loaded.status().ToString());
      } else if (loaded->num_mips() != index->num_mips()) {
        fail("serialize-roundtrip", 0,
             StrFormat("loaded %u MIPs, saved %u", loaded->num_mips(),
                       index->num_mips()));
      }
      std::remove(dump.string().c_str());
    }
  }

  for (size_t qi = 0; qi < fuzz_case.queries.size(); ++qi) {
    const LocalizedQuery& query = fuzz_case.queries[qi];
    if (!query.Validate(schema).ok()) continue;

    auto baseline = run_plan(*index, PlanKind::kSEV, query, nullptr);
    if (!baseline.ok()) {
      fail("plan-execution", qi,
           std::string(PlanKindName(PlanKind::kSEV)) + ": " +
               baseline.status().ToString());
      continue;
    }

    // All six plans against the brute-force oracle (or, with the oracle
    // disabled, against each other via the S-E-V baseline).
    RuleSet expected = baseline->rules;
    if (options.check_oracle) {
      auto oracle = OracleLocalizedRules(dataset, fuzz_case.primary_support,
                                         query, options.oracle);
      if (!oracle.ok()) {
        fail("oracle", qi, oracle.status().ToString());
        continue;
      }
      expected = std::move(oracle.value());
    }
    for (PlanKind kind : kAllPlans) {
      Result<PlanResult> rerun = Status::OK();
      const PlanResult* result = &*baseline;
      if (kind != PlanKind::kSEV) {
        rerun = run_plan(*index, kind, query, nullptr);
        if (!rerun.ok()) {
          fail("plan-execution", qi,
               std::string(PlanKindName(kind)) + ": " +
                   rerun.status().ToString());
          continue;
        }
        result = &*rerun;
      }
      if (!result->rules.SameAs(expected)) {
        fail("plan-vs-oracle", qi,
             std::string(PlanKindName(kind)) + ": " +
                 DiffRuleSets(schema, result->rules, expected));
      }

      // Parallel runs must match the sequential one byte-for-byte: rules
      // against the expected answer, effort counters against the run.
      for (auto& pool : pools) {
        auto parallel = run_plan(*index, kind, query, pool.get());
        if (!parallel.ok()) {
          fail("thread-invariance", qi,
               StrFormat("%s with %u threads: %s", PlanKindName(kind),
                         pool->parallelism(),
                         parallel.status().ToString().c_str()));
          continue;
        }
        if (!parallel->rules.SameAs(expected)) {
          fail("thread-invariance", qi,
               StrFormat("%s with %u threads: %s", PlanKindName(kind),
                         pool->parallelism(),
                         DiffRuleSets(schema, parallel->rules, expected)
                             .c_str()));
        }
        std::string effort = DiffEffort(parallel->stats, result->stats);
        if (!effort.empty()) {
          fail("thread-invariance", qi,
               StrFormat("%s effort with %u threads: %s", PlanKindName(kind),
                         pool->parallelism(), effort.c_str()));
        }
      }
    }

    if (options.check_serialize && loaded.ok()) {
      auto reloaded = run_plan(*loaded, PlanKind::kSEV, query, nullptr);
      if (!reloaded.ok()) {
        fail("serialize-roundtrip", qi, reloaded.status().ToString());
      } else {
        // The reloaded index carries the deserialized vertical bitmaps,
        // which a dense DQ's routes read: the v3 load path end to end.
        if (!reloaded->rules.SameAs(baseline->rules)) {
          fail("serialize-roundtrip", qi,
               DiffRuleSets(schema, reloaded->rules, baseline->rules));
        }
        std::string effort = DiffEffort(reloaded->stats, baseline->stats);
        if (!effort.empty()) {
          fail("serialize-roundtrip", qi, "effort: " + effort);
        }
      }
    }

    // Differential constraint equivalence: the constrained baseline must
    // equal the post-filtered unconstrained twin. A single S-E-V
    // comparison covers the full matrix because every invariant above
    // already checks each plan / thread / SIMD variant against
    // this same constrained baseline.
    if (options.check_constraints && !query.constraints.Empty()) {
      LocalizedQuery twin = query;
      twin.constraints = RuleConstraints{};
      auto unconstrained = run_plan(*index, PlanKind::kSEV, twin, nullptr);
      if (!unconstrained.ok()) {
        fail("constraint-equivalence", qi,
             "unconstrained twin: " + unconstrained.status().ToString());
      } else {
        std::vector<Tid> dq;
        for (Tid t = 0; t < dataset.num_records(); ++t) {
          bool inside = true;
          for (const RangeSelection& range : query.ranges) {
            const ValueId v = dataset.Value(t, range.attr);
            if (v < range.lo || v > range.hi) {
              inside = false;
              break;
            }
          }
          if (inside) dq.push_back(t);
        }
        const RuleSet filtered =
            FilterRules(dataset, dq, unconstrained->rules, query.constraints);
        if (!baseline->rules.SameAs(filtered)) {
          fail("constraint-equivalence", qi,
               DiffRuleSets(schema, baseline->rules, filtered));
        }
      }
    }

    // Monotonicity: raising either threshold can only drop rules, and the
    // survivors must keep their exact counts (counts are threshold-free).
    if (options.check_monotonic) {
      auto by_key = IndexRules(baseline->rules);
      for (int which = 0; which < 2; ++which) {
        LocalizedQuery raised = query;
        double& threshold = which == 0 ? raised.minsupp : raised.minconf;
        threshold = std::min(1.0, threshold + (1.0 - threshold) * 0.5 + 0.05);
        auto result = run_plan(*index, PlanKind::kSSVS, raised, nullptr);
        if (!result.ok()) {
          fail("monotonicity", qi, result.status().ToString());
          continue;
        }
        for (const Rule& rule : result->rules.rules) {
          auto it = by_key.find({rule.antecedent, rule.consequent});
          if (it == by_key.end()) {
            fail("monotonicity", qi,
                 StrFormat("raising %s surfaced new rule %s",
                           which == 0 ? "minsupp" : "minconf",
                           rule.ToString(schema).c_str()));
            break;
          }
          const Rule& base_rule = *it->second;
          if (rule.itemset_count != base_rule.itemset_count ||
              rule.antecedent_count != base_rule.antecedent_count ||
              rule.base_count != base_rule.base_count) {
            fail("monotonicity", qi,
                 "rule counts changed under a raised threshold: " +
                     rule.ToString(schema));
            break;
          }
        }
      }
    }

    // Focal-box containment: DQ' ⊆ DQ implies every absolute count of a
    // rule present in both answers can only shrink.
    if (options.check_containment) {
      LocalizedQuery inner = query;
      if (TightenQuery(schema, &inner) && inner.Validate(schema).ok()) {
        auto result = run_plan(*index, PlanKind::kSSEUV, inner, nullptr);
        if (!result.ok()) {
          fail("containment", qi, result.status().ToString());
        } else {
          auto by_key = IndexRules(baseline->rules);
          for (const Rule& rule : result->rules.rules) {
            if (rule.base_count > baseline->stats.subset_size) {
              fail("containment", qi,
                   StrFormat("inner |DQ|=%u exceeds outer |DQ|=%u",
                             rule.base_count, baseline->stats.subset_size));
              break;
            }
            auto it = by_key.find({rule.antecedent, rule.consequent});
            if (it == by_key.end()) continue;
            const Rule& outer = *it->second;
            if (rule.itemset_count > outer.itemset_count ||
                rule.antecedent_count > outer.antecedent_count ||
                rule.base_count > outer.base_count) {
              fail("containment", qi,
                   "count grew when the focal box shrank: " +
                       rule.ToString(schema) + " vs outer " +
                       outer.ToString(schema));
              break;
            }
          }
        }
      }
    }
  }

  // SIMD equivalence: re-run representative plans at every kernel ISA level
  // this host can execute and require byte-identical rules AND effort
  // counters against the forced-scalar kernels. kSEV drives the word
  // kernels on a dense DQ and the row routes otherwise; kARM stresses
  // tidset intersection hardest. Levels
  // switch only between runs (pools quiescent), and the entry level is
  // restored before returning so later invariants see the caller's
  // configuration.
  if (options.check_simd) {
    const SimdLevel original = ActiveSimdLevel();
    const int max_level = static_cast<int>(MaxSupportedSimdLevel());
    const PlanKind simd_plans[] = {PlanKind::kSEV, PlanKind::kARM};
    ThreadPool* shared_pool = pools.empty() ? nullptr : pools.back().get();
    for (size_t qi = 0; max_level > 0 && qi < fuzz_case.queries.size(); ++qi) {
      const LocalizedQuery& query = fuzz_case.queries[qi];
      if (!query.Validate(schema).ok()) continue;
      for (PlanKind kind : simd_plans) {
        SetActiveSimdLevel(SimdLevel::kScalar);
        auto baseline = run_plan(*index, kind, query, nullptr);
        if (!baseline.ok()) {
          fail("simd-equivalence", qi,
               StrFormat("%s scalar baseline: %s", PlanKindName(kind),
                         baseline.status().ToString().c_str()));
          continue;
        }
        std::vector<ThreadPool*> run_pools{nullptr};
        if (shared_pool != nullptr) run_pools.push_back(shared_pool);
        for (int l = 1; l <= max_level; ++l) {
          const SimdLevel level = static_cast<SimdLevel>(l);
          if (!SetActiveSimdLevel(level)) continue;
          for (ThreadPool* pool : run_pools) {
            const unsigned threads = pool ? pool->parallelism() : 1;
            auto got = run_plan(*index, kind, query, pool);
            if (!got.ok()) {
              fail("simd-equivalence", qi,
                   StrFormat("%s @%s x%u: %s", PlanKindName(kind),
                             SimdLevelName(level), threads,
                             got.status().ToString().c_str()));
              continue;
            }
            if (!got->rules.SameAs(baseline->rules)) {
              fail("simd-equivalence", qi,
                   StrFormat("%s @%s x%u: %s", PlanKindName(kind),
                             SimdLevelName(level), threads,
                             DiffRuleSets(schema, got->rules, baseline->rules)
                                 .c_str()));
            }
            std::string effort = DiffEffort(got->stats, baseline->stats);
            if (!effort.empty()) {
              fail("simd-equivalence", qi,
                   StrFormat("%s @%s x%u effort: %s", PlanKindName(kind),
                             SimdLevelName(level), threads, effort.c_str()));
            }
          }
        }
      }
    }
    SetActiveSimdLevel(original);
  }
  return violations;
}

}  // namespace fuzzing
}  // namespace colarm
