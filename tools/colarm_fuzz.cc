// colarm_fuzz — differential fuzzer for the plan-equivalence contract.
//
// Each seed expands into a deterministic random case (schema, dataset,
// primary support, query batch) that is checked against every metamorphic
// invariant: all six plans vs. the brute-force oracle, thread-count
// invariance (1/2/8), serialize round-trips, threshold monotonicity,
// focal-box containment dominance, SIMD kernel-level equivalence, and
// differential constraint equivalence (constrained execution ==
// post-filtered unconstrained execution). The first failing case is shrunk
// to a minimal dataset+query reproducer and printed as a ready-to-paste
// test.
//
// The record-level operators pick their route from the focal subset's
// density (|DQ| x 64 >= |D|: bitmaps, otherwise row probes). Small cases
// put almost every non-empty DQ over that bar, so every eighth seed draws
// a wide case — 640 to 2000 records over wider domains, whose narrow
// boxes fall below it — and the run reports how many DQs took each route.
//
// Usage:
//   colarm_fuzz [flags]
//
// Flags:
//   --seeds N          number of cases to run (default 50)
//   --seed-base S      first seed (default 1); case i uses seed S+i
//   --smoke            CI preset: small cases, fixed seed base, finishes in
//                      a few seconds; exit code 1 on any violation
//   --minutes M        long-running mode: keep drawing seeds until M
//                      minutes elapsed (overrides --seeds)
//   --threads A,B,...  pool sizes for the thread-invariance sweep
//                      (default 2,8; "1" alone disables the sweep)
//   --no-serialize     skip the serialize round-trip invariant
//   --no-simd          skip the SIMD kernel-level equivalence invariant
//   --no-constraints   generate only unconstrained queries and skip the
//                      constraint-equivalence invariant
//   --no-shrink        report the raw failing case without minimizing it
//   --inject-off-by-one  bias the oracle's local minsupport threshold by
//                      +1 to demonstrate that a >= vs > bug is caught
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/string_util.h"
#include "plans/focal_subset.h"
#include "testing/generator.h"
#include "testing/invariants.h"
#include "testing/shrinker.h"

namespace colarm {
namespace {

struct FuzzFlags {
  uint64_t seeds = 50;
  uint64_t seed_base = 1;
  double minutes = 0.0;
  bool smoke = false;
  bool shrink = true;
  bool inject_off_by_one = false;
  bool constraints = true;
  fuzzing::CheckOptions check;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed-base S] [--smoke] "
               "[--minutes M]\n"
               "          [--threads A,B,...] [--no-serialize] "
               "[--no-simd] [--no-constraints] [--no-shrink]\n"
               "          [--inject-off-by-one]\n",
               argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, FuzzFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = need_value();
      if (v == nullptr || !ParseUint64(v, &flags->seeds)) return false;
    } else if (arg == "--seed-base") {
      const char* v = need_value();
      if (v == nullptr || !ParseUint64(v, &flags->seed_base)) return false;
    } else if (arg == "--minutes") {
      const char* v = need_value();
      if (v == nullptr || !ParseDouble(v, &flags->minutes)) return false;
    } else if (arg == "--threads") {
      const char* v = need_value();
      if (v == nullptr) return false;
      flags->check.thread_counts.clear();
      for (const std::string& part : SplitString(v, ',')) {
        uint64_t n = 0;
        if (!ParseUint64(part, &n) || n == 0 || n > 64) return false;
        if (n > 1) flags->check.thread_counts.push_back(
            static_cast<unsigned>(n));
      }
      flags->check.check_threads = !flags->check.thread_counts.empty();
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (arg == "--no-serialize") {
      flags->check.check_serialize = false;
    } else if (arg == "--no-simd") {
      flags->check.check_simd = false;
    } else if (arg == "--no-constraints") {
      flags->constraints = false;
      flags->check.check_constraints = false;
    } else if (arg == "--no-shrink") {
      flags->shrink = false;
    } else if (arg == "--inject-off-by-one") {
      flags->inject_off_by_one = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Every eighth seed is a wide case: enough records that a narrow box's DQ
// falls under the density bar, so both record-level routes run.
fuzzing::FuzzLimits LimitsForSeed(uint64_t seed, fuzzing::FuzzLimits limits) {
  if (seed % 8 != 0) return limits;
  limits.min_records = 640;
  limits.max_records = 2000;
  limits.max_attrs = std::min<uint32_t>(limits.max_attrs, 5);
  limits.min_domain = 4;
  limits.max_domain = 8;
  return limits;
}

// Tally of the focal subsets a case's queries select, by the route the
// record-level operators take on them.
struct RouteSplit {
  uint64_t dense = 0;
  uint64_t sparse = 0;
  uint64_t empty = 0;

  void Add(const fuzzing::FuzzCase& fuzz_case) {
    const Dataset& dataset = fuzz_case.dataset;
    const VerticalIndex vertical = VerticalIndex::Build(dataset, nullptr);
    for (const LocalizedQuery& query : fuzz_case.queries) {
      if (!query.Validate(dataset.schema()).ok()) continue;
      const uint32_t size =
          FocalSubset::Materialize(dataset, vertical,
                                   query.ToRect(dataset.schema()))
              .size();
      if (size == 0) {
        ++empty;
      } else if (IsDense(size, dataset.num_records())) {
        ++dense;
      } else {
        ++sparse;
      }
    }
  }
};

int Main(int argc, char** argv) {
  FuzzFlags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);
  if (flags.inject_off_by_one) flags.check.oracle.inject_min_count_bias = 1;

  fuzzing::FuzzLimits limits;
  limits.constraints = flags.constraints;
  if (flags.smoke) {
    // CI envelope: tiny cases, whole run < 60 s including the oracle.
    limits.max_records = 80;
    limits.max_attrs = 5;
    limits.max_domain = 4;
    limits.queries_per_case = 3;
  } else {
    limits.max_records = 400;
    limits.max_attrs = 7;
  }

  const auto start = std::chrono::steady_clock::now();
  auto minutes_elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() /
           60.0;
  };

  uint64_t ran = 0;
  RouteSplit routes;
  for (uint64_t i = 0;; ++i) {
    if (flags.minutes > 0.0) {
      if (minutes_elapsed() >= flags.minutes) break;
    } else if (i >= flags.seeds) {
      break;
    }
    const uint64_t seed = flags.seed_base + i;
    fuzzing::FuzzCase fuzz_case =
        fuzzing::GenerateFuzzCase(seed, LimitsForSeed(seed, limits));
    routes.Add(fuzz_case);
    std::vector<fuzzing::Violation> violations =
        fuzzing::CheckCase(fuzz_case, flags.check);
    ++ran;
    if (!violations.empty()) {
      std::printf("seed %llu: %zu violation(s)\n",
                  static_cast<unsigned long long>(seed), violations.size());
      for (const auto& violation : violations) {
        std::printf("  %s\n", violation.ToString().c_str());
      }
      if (flags.shrink) {
        fuzzing::FuzzCase shrunk =
            fuzzing::ShrinkCase(fuzz_case, flags.check);
        std::printf(
            "shrunk to %u record(s), %u attribute(s), %zu quer%s:\n\n%s\n",
            shrunk.dataset.num_records(), shrunk.dataset.num_attributes(),
            shrunk.queries.size(), shrunk.queries.size() == 1 ? "y" : "ies",
            fuzzing::FormatReproducer(shrunk).c_str());
      }
      std::printf("FAIL after %llu case(s)\n",
                  static_cast<unsigned long long>(ran));
      return 1;
    }
    if (ran % 50 == 0) {
      std::printf("%llu cases ok (%.1f s)\n",
                  static_cast<unsigned long long>(ran),
                  minutes_elapsed() * 60.0);
      std::fflush(stdout);
    }
  }
  std::printf("routes: %llu dense DQ(s), %llu sparse, %llu empty\n",
              static_cast<unsigned long long>(routes.dense),
              static_cast<unsigned long long>(routes.sparse),
              static_cast<unsigned long long>(routes.empty));
  std::printf("OK: %llu case(s), zero invariant violations (%.1f s)\n",
              static_cast<unsigned long long>(ran), minutes_elapsed() * 60.0);
  return 0;
}

}  // namespace
}  // namespace colarm

int main(int argc, char** argv) { return colarm::Main(argc, argv); }
