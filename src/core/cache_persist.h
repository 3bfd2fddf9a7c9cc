#ifndef COLARM_CORE_CACHE_PERSIST_H_
#define COLARM_CORE_CACHE_PERSIST_H_

#include <string>

#include "core/query_cache.h"

namespace colarm {

/// Session-cache persistence (format v5) — the warm-restart half of the
/// POQM story: hot focal subsets are saved next to the MIP-index cache so
/// a restarted `colarm_server` serves drill-down traffic from the page
/// cache instead of re-paying relation scans.
///
/// Layout: a header (magic "CLRM", version 5, the owning engine's
/// IndexFingerprint, dimensionality, entry count), then one
/// self-checksummed section per entry — the segment flag, the hit and
/// derivation counters, the box bounds, the tid count, and a tid payload
/// padded to a 64-byte file offset (so an mmap'ed load hands the engine
/// cache-line-aligned runs straight from the page cache) — and a trailing
/// whole-file FNV-1a checksum that must sit exactly at EOF. Versioning is
/// disjoint from the MIP-index format (v3), so the two files can never be
/// confused for one another. v4 files, which also carried count and ARM
/// memos, are refused like any other version.
///
/// The load path follows the serialize v3 hardening discipline: every
/// field is validated against the index before any allocation or use,
/// truncations and bit flips are rejected via the checksums, and *any*
/// failure — including an index-fingerprint mismatch after a rebuild —
/// returns a Status and leaves the cache untouched, so callers degrade to
/// a cold cache, never to undefined behavior. The TinyLFU frequency
/// sketch is deliberately not persisted (admission history restarts cold;
/// residency does not).
Status SaveQueryCache(const QueryCache& cache, const MipIndex& index,
                      const std::string& path);

/// Restores `cache` from `path` (replacing its residency, keeping its
/// monotonic telemetry totals). Reads via mmap when the platform allows,
/// buffered I/O otherwise — the parse and its validation are identical.
Status LoadQueryCache(const MipIndex& index, const std::string& path,
                      QueryCache* cache);

}  // namespace colarm

#endif  // COLARM_CORE_CACHE_PERSIST_H_
