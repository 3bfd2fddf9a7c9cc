// Persistence-format hardening tests for the session cache, mirroring
// the serialize v3 discipline: a full-state round trip, truncation at
// every offset, a single-bit-flip sweep over the whole file, bounded
// counts, version/fingerprint rejection, and clean cold fallback on every
// failure.
#include "core/cache_persist.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

struct Env {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<MipIndex> index;

  static Env Make(uint64_t seed, uint32_t records = 250, uint32_t attrs = 5,
                  uint32_t domain = 4) {
    Env env;
    env.data =
        std::make_unique<Dataset>(RandomDataset(seed, records, attrs, domain));
    auto built = MipIndex::Build(*env.data, {.primary_support = 0.2});
    EXPECT_TRUE(built.ok());
    env.index = std::make_unique<MipIndex>(std::move(built.value()));
    return env;
  }

  Rect Box(std::vector<RangeSelection> ranges) const {
    LocalizedQuery query;
    query.ranges = std::move(ranges);
    return query.ToRect(data->schema());
  }
};

QueryCacheOptions Enabled() {
  QueryCacheOptions options;
  options.byte_budget = size_t{64} << 20;
  return options;
}

/// Populates `cache` with a mix of state the format must carry: a cold
/// entry, a containment-derived entry (giving the source a derivation and
/// 2Q promotion), and an exact hit (per-entry hit count).
void Populate(const Env& env, QueryCache* cache) {
  uint64_t ignored = 0;
  Rect inner = env.Box({{0, 0, 1}, {2, 0, 1}});
  cache->Acquire(env.Box({{0, 0, 2}}), &ignored);
  cache->Acquire(inner, &ignored);
  cache->Acquire(inner, &ignored);  // exact hit
}

// Section layout: segment flag (1), hits (8), derivations (8), the box
// (4 per dimension), the tid count (4), padding to a 64-byte file offset,
// the tids, and the section checksum (8). The file checksum (8) follows
// the last section.
constexpr size_t kFirstSection = 24;
constexpr size_t kBoxOffset = 17;

/// Offset just past the tids of the section starting at `start`.
size_t TidsEnd(const std::string& file, size_t start, uint32_t dims) {
  uint32_t tids = 0;
  std::memcpy(&tids, &file[start + kBoxOffset + 4 * dims], sizeof(tids));
  const size_t payload = (start + kBoxOffset + 4 * dims + 4 + 63) / 64 * 64;
  return payload + tids * sizeof(Tid);
}

uint64_t FnvOf(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char b : bytes) hash = (hash ^ b) * 1099511628211ULL;
  return hash;
}

/// Redoes the checksums of the file's last section, which starts at
/// `start`, and of the whole file.
void RehashLastSection(std::string* file, size_t start) {
  const size_t end = file->size() - 16;
  const uint64_t section_hash =
      FnvOf(std::string_view(*file).substr(start, end - start));
  std::memcpy(&(*file)[end], &section_hash, sizeof(section_hash));
  const uint64_t file_hash = FnvOf(std::string_view(*file).substr(0, end + 8));
  std::memcpy(&(*file)[end + 8], &file_hash, sizeof(file_hash));
}

TEST(CachePersistTest, RoundTripPreservesEntries) {
  Env env = Env::Make(21);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_roundtrip.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());

  QueryCache reloaded(*env.index, Enabled());
  Status loaded = LoadQueryCache(*env.index, path, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  const auto before = cache.Snapshot();
  const auto after = reloaded.Snapshot();
  ASSERT_EQ(after.size(), before.size());
  ASSERT_GT(before.size(), 0u);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].box, before[i].box) << "entry " << i;
    EXPECT_EQ(after[i].subset->tids, before[i].subset->tids) << "entry " << i;
    EXPECT_EQ(after[i].is_protected, before[i].is_protected) << "entry " << i;
    EXPECT_EQ(after[i].hits, before[i].hits) << "entry " << i;
    EXPECT_EQ(after[i].derivations, before[i].derivations) << "entry " << i;
  }
  // Byte accounting is recomputed, not trusted from the file, and must
  // land on the identical resident footprint.
  EXPECT_EQ(reloaded.telemetry().bytes, cache.telemetry().bytes);
  EXPECT_EQ(reloaded.telemetry().entries, cache.telemetry().entries);

  // The warm cache serves the persisted boxes as exact hits.
  EXPECT_EQ(reloaded.Probe(env.Box({{0, 0, 2}})).tier, CacheTier::kExact);
  EXPECT_EQ(reloaded.Probe(env.Box({{0, 0, 1}, {2, 0, 1}})).tier,
            CacheTier::kExact);
  std::remove(path.c_str());
}

TEST(CachePersistTest, EmptyCacheRoundTrips) {
  Env env = Env::Make(22, 60, 3, 3);
  QueryCache cache(*env.index, Enabled());
  const std::string path = TempPath("cache_empty.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  QueryCache reloaded(*env.index, Enabled());
  Status loaded = LoadQueryCache(*env.index, path, &reloaded);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(reloaded.telemetry().entries, 0u);
  EXPECT_EQ(reloaded.telemetry().bytes, 0u);
  std::remove(path.c_str());
}

// A prefix of any length must fail with a clean Status and leave the
// target cache untouched — the warm-restart path degrades to cold.
TEST(CachePersistTest, TruncationAtEveryOffsetFailsCleanly) {
  Env env = Env::Make(23, 60, 3, 3);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_truncate.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  const std::string full = Slurp(path);
  ASSERT_GT(full.size(), 32u);

  for (size_t keep = 0; keep < full.size(); ++keep) {
    Spit(path, full.substr(0, keep));
    QueryCache fresh(*env.index, Enabled());
    Status loaded = LoadQueryCache(*env.index, path, &fresh);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes loaded";
    EXPECT_EQ(fresh.telemetry().entries, 0u) << "prefix of " << keep;
  }
  Spit(path, full);
  QueryCache fresh(*env.index, Enabled());
  EXPECT_TRUE(LoadQueryCache(*env.index, path, &fresh).ok());
  std::remove(path.c_str());
}

// Flipping any single bit must be rejected: header flips structurally,
// padding by the zero check, payloads by the per-section checksum, the
// trailing checksum by its own mismatch.
TEST(CachePersistTest, SingleBitFlipsAreAlwaysRejected) {
  Env env = Env::Make(24, 40, 3, 3);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_bitflip.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  const std::string full = Slurp(path);

  for (size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Spit(path, flipped);
      QueryCache fresh(*env.index, Enabled());
      Status loaded = LoadQueryCache(*env.index, path, &fresh);
      EXPECT_FALSE(loaded.ok())
          << "flip of bit " << bit << " in byte " << byte << " loaded";
    }
  }
  std::remove(path.c_str());
}

// A cache saved against one index must not load against another: the
// engine rebuilt (different data or options) means every tid is suspect.
TEST(CachePersistTest, FingerprintMismatchFallsBackCold) {
  Env env = Env::Make(25, 80, 4, 3);
  Env other = Env::Make(26, 80, 4, 3);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_fingerprint.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());

  QueryCache fresh(*other.index, Enabled());
  Status loaded = LoadQueryCache(*other.index, path, &fresh);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.ToString().find("different index"), std::string::npos)
      << loaded.ToString();
  EXPECT_EQ(fresh.telemetry().entries, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistTest, WrongMagicIsNotACacheFile) {
  Env env = Env::Make(27, 40, 3, 3);
  const std::string path = TempPath("cache_magic.ccache");
  Spit(path, "definitely not a session cache, but long enough to read");
  QueryCache fresh(*env.index, Enabled());
  Status loaded = LoadQueryCache(*env.index, path, &fresh);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("is not a COLARM cache file"),
            std::string::npos)
      << loaded.ToString();
  std::remove(path.c_str());
}

// Versions 1-3 are MIP-index formats; version 4 files also carried count
// and ARM memo records, a layout this build no longer reads. The loader
// refuses each at the version field and leaves the target cache as it
// was, so the caller carries on cold (a server tenant starts with an
// empty cache, as on any load failure).
TEST(CachePersistTest, WrongVersionIsRejected) {
  Env env = Env::Make(28, 40, 3, 3);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_version.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  const std::string saved = Slurp(path);
  for (const uint32_t old_version : {3u, 4u}) {
    std::string full = saved;
    // The version field sits after the magic.
    std::memcpy(&full[4], &old_version, sizeof(old_version));
    Spit(path, full);
    QueryCache target(*env.index, Enabled());
    uint64_t ignored = 0;
    const Rect resident = env.Box({{1, 0, 1}});
    target.Acquire(resident, &ignored);
    const CacheTelemetry before = target.telemetry();
    Status loaded = LoadQueryCache(*env.index, path, &target);
    ASSERT_FALSE(loaded.ok()) << "version " << old_version;
    EXPECT_EQ(loaded.code(), StatusCode::kParseError);
    EXPECT_NE(loaded.ToString().find("unsupported cache version " +
                                     std::to_string(old_version)),
              std::string::npos)
        << loaded.ToString();
    EXPECT_EQ(target.telemetry().entries, before.entries);
    EXPECT_EQ(target.telemetry().bytes, before.bytes);
    EXPECT_EQ(target.Probe(resident).tier, CacheTier::kExact);
  }
  std::remove(path.c_str());
}

// An entry count inflated far beyond what the file holds must be bounded
// before the loader allocates anything for the claimed entries.
TEST(CachePersistTest, HugeEntryCountIsRejectedBeforeAllocation) {
  Env env = Env::Make(29, 40, 3, 3);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_huge_count.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  std::string full = Slurp(path);
  const uint32_t huge = 0xfffffff0u;  // entry_count sits at offset 20
  std::memcpy(&full[20], &huge, sizeof(huge));
  Spit(path, full);
  QueryCache fresh(*env.index, Enabled());
  Status loaded = LoadQueryCache(*env.index, path, &fresh);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CachePersistTest, TrailingGarbageIsRejected) {
  Env env = Env::Make(30, 40, 3, 3);
  QueryCache cache(*env.index, Enabled());
  Populate(env, &cache);
  const std::string path = TempPath("cache_trailing.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  Spit(path, Slurp(path) + "x");
  QueryCache fresh(*env.index, Enabled());
  EXPECT_FALSE(LoadQueryCache(*env.index, path, &fresh).ok());
  std::remove(path.c_str());
}

TEST(CachePersistTest, MissingFileFails) {
  Env env = Env::Make(31, 40, 3, 3);
  QueryCache fresh(*env.index, Enabled());
  Status loaded = LoadQueryCache(
      *env.index, TempPath("cache_does_not_exist.ccache"), &fresh);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
}

// A load replaces prior residency wholesale (like Clear + insert), so a
// stale warm state cannot leak through a restore.
TEST(CachePersistTest, LoadReplacesExistingResidency) {
  Env env = Env::Make(32);
  QueryCache source(*env.index, Enabled());
  Populate(env, &source);
  const std::string path = TempPath("cache_replace.ccache");
  ASSERT_TRUE(SaveQueryCache(source, *env.index, path).ok());

  QueryCache target(*env.index, Enabled());
  uint64_t ignored = 0;
  Rect stale = env.Box({{1, 0, 1}});
  target.Acquire(stale, &ignored);
  ASSERT_EQ(target.Probe(stale).tier, CacheTier::kExact);

  ASSERT_TRUE(LoadQueryCache(*env.index, path, &target).ok());
  EXPECT_EQ(target.Probe(stale).tier, CacheTier::kNone);
  EXPECT_EQ(target.telemetry().entries, source.telemetry().entries);
  EXPECT_EQ(target.telemetry().bytes, source.telemetry().bytes);
  std::remove(path.c_str());
}

// Restoring two snapshots of one box keeps one entry and accounts for one.
TEST(CachePersistTest, RestoreOfARepeatedBoxKeepsExactAccounting) {
  Env env = Env::Make(34);
  CacheEntrySnapshot snap;
  snap.box = env.Box({{0, 0, 1}});
  snap.subset = std::make_shared<const FocalSubset>(
      FocalSubset::Materialize(*env.data, snap.box));
  QueryCache single(*env.index, Enabled());
  single.Restore({snap});
  QueryCache doubled(*env.index, Enabled());
  doubled.Restore({snap, snap});
  EXPECT_EQ(doubled.Snapshot().size(), 1u);
  EXPECT_EQ(doubled.telemetry().entries, doubled.Snapshot().size());
  EXPECT_EQ(doubled.telemetry().bytes, single.telemetry().bytes);
}

// A file naming one box twice would make Restore keep one entry of two,
// so the loader rejects it as corrupt. The file is a valid two-entry save
// whose second box is rewritten to the first, with both checksums redone.
TEST(CachePersistTest, RepeatedBoxIsRejected) {
  Env env = Env::Make(35);
  const uint32_t dims = env.data->num_attributes();
  QueryCache cache(*env.index, Enabled());
  uint64_t ignored = 0;
  cache.Acquire(env.Box({{0, 0, 1}}), &ignored);
  cache.Acquire(env.Box({{0, 2, 3}}), &ignored);
  const std::string path = TempPath("cache_repeated_box.ccache");
  ASSERT_TRUE(SaveQueryCache(cache, *env.index, path).ok());
  std::string file = Slurp(path);

  // Each section ends with its tids.
  const size_t second = TidsEnd(file, kFirstSection, dims) + 8;
  ASSERT_EQ(file.size(), TidsEnd(file, second, dims) + 16);
  std::memcpy(&file[second + kBoxOffset], &file[kFirstSection + kBoxOffset],
              4 * dims);
  RehashLastSection(&file, second);
  Spit(path, file);

  QueryCache fresh(*env.index, Enabled());
  Status loaded = LoadQueryCache(*env.index, path, &fresh);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("repeated box"), std::string::npos)
      << loaded.ToString();
  EXPECT_EQ(fresh.telemetry().entries, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace colarm
