#ifndef COLARM_TESTING_INVARIANTS_H_
#define COLARM_TESTING_INVARIANTS_H_

#include <string>
#include <vector>

#include "testing/generator.h"
#include "testing/oracle.h"

namespace colarm {
namespace fuzzing {

/// One invariant violation: which property broke, on which query of the
/// case, and a human-readable diff summary.
struct Violation {
  std::string invariant;   // "plan-vs-oracle", "thread-invariance", ...
  size_t query_index = 0;  // index into FuzzCase::queries
  std::string detail;

  std::string ToString() const;
};

struct CheckOptions {
  /// Degrees of parallelism to sweep; 1 is the sequential baseline and is
  /// always implied.
  std::vector<unsigned> thread_counts = {2, 8};
  bool check_oracle = true;
  bool check_threads = true;
  bool check_serialize = true;
  bool check_monotonic = true;
  bool check_containment = true;
  /// Replay the case's query sequence through a session-cache-enabled
  /// engine — cold vs. warm, a second cache-hot pass, and a deterministic
  /// shuffled order — requiring byte-identical rules, effort counters, and
  /// plan decisions against a cache-less engine.
  bool check_session_cache = true;
  /// Re-run representative plans at every SIMD kernel level the host can
  /// execute (AVX2, AVX-512) and require byte-identical rules and effort
  /// counters against the forced-scalar kernels, at 1 and N threads.
  /// No-op on hosts without vector ISAs.
  bool check_simd = true;
  /// Differential constraint equivalence: for every constrained query, a
  /// constrained run must equal post-filtering the unconstrained twin's
  /// rules. One S-E-V comparison covers the whole matrix — every other
  /// invariant already cross-checks each thread / SIMD / cache variant
  /// against the constrained baseline.
  bool check_constraints = true;
  /// Cache-persistence round-trip: run the sequence warm, save the session
  /// cache to a file, load it into a fresh engine, and replay — the
  /// persisted-warm pass must answer every query byte-identically (rules,
  /// effort counters, plan choice) to a cache-less engine.
  bool check_cache_persistence = true;
  OracleOptions oracle;
};

/// Runs every enabled metamorphic invariant over one case and returns all
/// violations found (empty = the case passes):
///
///   plan-vs-oracle      all six plans equal the brute-force oracle
///   thread-invariance   rules and effort counters identical under every
///                       pool size (and a parallel index build equals the
///                       sequential one)
///   serialize-roundtrip save -> load preserves MIPs and query answers
///                       (rules and effort counters)
///   monotonicity        raising minsupp or minconf never adds rules, and
///                       surviving rules keep their exact counts
///   containment         shrinking the focal box never increases any
///                       absolute count of a rule present in both results
///   session-cache       replaying the query sequence through the session
///                       cache (warm, cache-hot, and shuffled-order passes)
///                       answers every query exactly like a cache-less
///                       engine
///   simd-equivalence    every SIMD level the host supports (scalar, AVX2,
///                       AVX-512) yields byte-identical rules and effort
///                       counters, at 1 and N threads
///   constraint-equivalence  constraints pushed into execution return
///                       exactly FilterRules(unconstrained twin) — the
///                       post-filter reference semantics
///   cache-persistence   save -> load -> replay of the session cache
///                       answers every query exactly like a cache-less
///                       engine (rules, effort counters, plan choice)
std::vector<Violation> CheckCase(const FuzzCase& fuzz_case,
                                 const CheckOptions& options = {});

}  // namespace fuzzing
}  // namespace colarm

#endif  // COLARM_TESTING_INVARIANTS_H_
