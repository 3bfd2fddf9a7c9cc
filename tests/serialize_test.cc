#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "mip/serialize.h"
#include "test_util.h"

namespace colarm {
namespace {

using testing_util::RandomDataset;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializeTest, RoundTripPreservesEveryMip) {
  auto data = std::make_unique<Dataset>(RandomDataset(1, 150, 5, 4));
  auto built = MipIndex::Build(*data, {.primary_support = 0.2});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("roundtrip.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());

  auto loaded = LoadMipIndex(*data, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_mips(), built->num_mips());
  EXPECT_EQ(loaded->primary_count(), built->primary_count());
  for (uint32_t id = 0; id < built->num_mips(); ++id) {
    EXPECT_EQ(loaded->mip(id).items, built->mip(id).items);
    EXPECT_EQ(loaded->mip(id).global_count, built->mip(id).global_count);
    EXPECT_EQ(loaded->mip(id).bbox, built->mip(id).bbox);
  }
  EXPECT_TRUE(loaded->rtree().CheckInvariants());
  EXPECT_EQ(loaded->ittree().size(), built->ittree().size());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadedIndexAnswersQueriesIdentically) {
  auto data = std::make_unique<Dataset>(RandomDataset(2, 200, 5, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.2});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("queries.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  auto loaded = LoadMipIndex(*data, path);
  ASSERT_TRUE(loaded.ok());

  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.4;
  query.minconf = 0.6;
  for (PlanKind kind : kAllPlans) {
    auto a = ExecutePlan(kind, *built, query);
    auto b = ExecutePlan(kind, *loaded, query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a->rules.SameAs(b->rules)) << PlanKindName(kind);
  }
  std::remove(path.c_str());
}

// Format v3 persists the vertical bitmap index; a load must hand back
// bitmaps identical to a fresh build and serve the dense-DQ routes
// without rebuilding anything.
TEST(SerializeTest, RoundTripPreservesVerticalIndex) {
  auto data = std::make_unique<Dataset>(RandomDataset(14, 200, 5, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.2});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("vertical.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  auto loaded = LoadMipIndex(*data, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const VerticalIndex& a = built->vertical();
  const VerticalIndex& b = loaded->vertical();
  ASSERT_FALSE(b.empty());
  ASSERT_EQ(b.num_records(), a.num_records());
  ASSERT_EQ(b.num_items(), a.num_items());
  for (ItemId i = 0; i < a.num_items(); ++i) {
    EXPECT_EQ(b.item(i), a.item(i)) << "item " << i;
  }

  LocalizedQuery query;
  query.ranges = {{0, 0, 1}};
  query.minsupp = 0.3;
  query.minconf = 0.5;
  // About two thirds of the records: a dense DQ, so every counting plan
  // reads the loaded item bitmaps.
  const uint32_t dq_size =
      OpSelect(*built, query).size();
  ASSERT_TRUE(IsDense(dq_size, data->num_records()));
  for (PlanKind kind : kAllPlans) {
    auto fresh = ExecutePlan(kind, *built, query);
    auto reloaded = ExecutePlan(kind, *loaded, query);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(reloaded.ok());
    EXPECT_TRUE(reloaded->rules.SameAs(fresh->rules)) << PlanKindName(kind);
    EXPECT_EQ(reloaded->stats.record_checks, fresh->stats.record_checks)
        << PlanKindName(kind);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsWrongDataset) {
  auto data = std::make_unique<Dataset>(RandomDataset(3, 100, 4, 3));
  auto other = std::make_unique<Dataset>(RandomDataset(4, 100, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("wrong_dataset.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  auto loaded = LoadMipIndex(*other, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbageAndTruncation) {
  auto data = std::make_unique<Dataset>(RandomDataset(5, 80, 4, 3));
  std::string path = TempPath("garbage.clrm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not an index";
  }
  EXPECT_FALSE(LoadMipIndex(*data, path).ok());

  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(LoadMipIndex(*data, path).ok());
  std::remove(path.c_str());
}

// Reads the whole file into memory so corruption tests can mutate bytes.
std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

// A prefix of any length must fail with a clean Status: no crash, no
// allocation blow-up, no partially-valid index.
TEST(SerializeTest, TruncationAtEveryOffsetFailsCleanly) {
  auto data = std::make_unique<Dataset>(RandomDataset(10, 80, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  ASSERT_GT(built->num_mips(), 0u);
  std::string path = TempPath("truncate_sweep.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  const std::string full = Slurp(path);
  ASSERT_GT(full.size(), 53u);

  for (size_t keep = 0; keep < full.size(); ++keep) {
    Spit(path, full.substr(0, keep));
    auto loaded = LoadMipIndex(*data, path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes loaded";
  }
  // The untouched file still loads, so the sweep exercised real content.
  Spit(path, full);
  EXPECT_TRUE(LoadMipIndex(*data, path).ok());
  std::remove(path.c_str());
}

// Flipping any single bit anywhere in the file must be rejected: header
// flips by the structural checks, payload flips by the checksum, checksum
// flips by the mismatch itself.
TEST(SerializeTest, SingleBitFlipsAreAlwaysRejected) {
  auto data = std::make_unique<Dataset>(RandomDataset(11, 80, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  ASSERT_GT(built->num_mips(), 0u);
  std::string path = TempPath("bitflip.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  const std::string full = Slurp(path);

  for (size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Spit(path, flipped);
      auto loaded = LoadMipIndex(*data, path);
      EXPECT_FALSE(loaded.ok())
          << "flip of bit " << bit << " in byte " << byte << " loaded";
    }
  }
  std::remove(path.c_str());
}

// The MIP records of a saved index, cut out of its bytes so a test can
// reorder or repeat them and write a file whose checksum is still valid.
struct MipRecords {
  std::string header;                // up to and including num_mips
  std::vector<std::string> records;  // one per MIP, in file order
  std::string rest;                  // the vertical section, no checksum

  std::string Join() const {
    std::string out = header;
    for (const std::string& record : records) out += record;
    out += rest;
    uint64_t hash = 1469598103934665603ULL;
    for (unsigned char b : out) hash = (hash ^ b) * 1099511628211ULL;
    out.append(reinterpret_cast<const char*>(&hash), sizeof(hash));
    return out;
  }
};

MipRecords SplitMipRecords(const std::string& file, uint32_t dims) {
  MipRecords split;
  split.header = file.substr(0, 45);  // num_mips is at offset 41
  uint32_t num_mips = 0;
  std::memcpy(&num_mips, &file[41], sizeof(num_mips));
  size_t at = 45;
  for (uint32_t i = 0; i < num_mips; ++i) {
    uint32_t len = 0;
    std::memcpy(&len, &file[at], sizeof(len));
    const size_t size = 4 + 4 * size_t{len} + 4 + 4 * size_t{dims};
    split.records.push_back(file.substr(at, size));
    at += size;
  }
  split.rest = file.substr(at, file.size() - 8 - at);
  return split;
}

// A crafted file whose checksum holds must still fail closed when its MIPs
// repeat an itemset or leave itemset order: a MIP's id is its position in
// the IT-tree's depth-first layout, which ELIMINATE's walk indexes by.
TEST(SerializeTest, RepeatedOrReorderedMipsAreRejected) {
  auto data = std::make_unique<Dataset>(RandomDataset(14, 80, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  ASSERT_GT(built->num_mips(), 2u);
  std::string path = TempPath("mip_order.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  const MipRecords saved =
      SplitMipRecords(Slurp(path), data->num_attributes());
  ASSERT_EQ(saved.records.size(), built->num_mips());

  // Re-joining the untouched records loads: the rewrite itself is sound.
  Spit(path, saved.Join());
  ASSERT_TRUE(LoadMipIndex(*data, path).ok());

  MipRecords repeated = saved;
  repeated.records[1] = repeated.records[0];
  MipRecords swapped = saved;
  std::swap(swapped.records[1], swapped.records[2]);
  for (const MipRecords* bad : {&repeated, &swapped}) {
    Spit(path, bad->Join());
    auto loaded = LoadMipIndex(*data, path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().ToString().find("corrupt index file"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// A count field inflated to claim far more MIPs than the file holds must
// be bounded before the loader reserves memory for them.
TEST(SerializeTest, HugeMipCountIsRejectedBeforeAllocation) {
  auto data = std::make_unique<Dataset>(RandomDataset(12, 60, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("huge_count.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  std::string full = Slurp(path);
  // num_mips is the last header field, at offset 41 (header is 45 bytes).
  const uint32_t huge = 0xfffffff0u;
  std::memcpy(&full[41], &huge, sizeof(huge));
  Spit(path, full);
  auto loaded = LoadMipIndex(*data, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

// Appending garbage after the checksum must fail: the format owns the
// whole file, and trailing bytes indicate a mangled write.
TEST(SerializeTest, TrailingGarbageIsRejected) {
  auto data = std::make_unique<Dataset>(RandomDataset(13, 60, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("trailing.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  Spit(path, Slurp(path) + "x");
  EXPECT_FALSE(LoadMipIndex(*data, path).ok());
  std::remove(path.c_str());
}

// A v2 cache (no vertical section) is rejected with a clean version error
// rather than misparsed...
TEST(SerializeTest, OlderVersionIsRejected) {
  auto data = std::make_unique<Dataset>(RandomDataset(15, 80, 4, 3));
  auto built = MipIndex::Build(*data, {.primary_support = 0.25});
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("old_version.clrm");
  ASSERT_TRUE(SaveMipIndex(*built, path).ok());
  std::string full = Slurp(path);
  const uint32_t old_version = 2;  // version field sits after the magic
  std::memcpy(&full[4], &old_version, sizeof(old_version));
  Spit(path, full);
  auto loaded = LoadMipIndex(*data, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("unsupported index version"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// ...and the engine treats such a cache as absent: it rebuilds, refreshes
// the file in the current format, and answers normally.
TEST(SerializeTest, EngineFallsBackFromOlderCacheVersion) {
  auto data = std::make_unique<Dataset>(RandomDataset(16, 120, 4, 3));
  std::string path = TempPath("old_cache.clrm");

  EngineOptions options;
  options.index.primary_support = 0.25;
  options.calibrate = false;
  options.index_cache_path = path;
  auto first = Engine::Build(*data, options);
  ASSERT_TRUE(first.ok());

  // Downgrade the cache's version field in place.
  std::string full = Slurp(path);
  const uint32_t old_version = 2;
  std::memcpy(&full[4], &old_version, sizeof(old_version));
  Spit(path, full);

  auto second = Engine::Build(*data, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->index().num_mips(), (*first)->index().num_mips());

  // The rebuild refreshed the cache: it loads again in the current format.
  auto reloaded = LoadMipIndex(*data, path);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  auto data = std::make_unique<Dataset>(RandomDataset(6, 50, 3, 2));
  auto loaded = LoadMipIndex(*data, TempPath("does_not_exist.clrm"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, FingerprintSensitivity) {
  Dataset a = RandomDataset(7, 60, 4, 3);
  Dataset b = RandomDataset(7, 60, 4, 3);
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));  // deterministic
  Dataset c = RandomDataset(8, 60, 4, 3);
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(c));
  Dataset d = RandomDataset(7, 61, 4, 3);
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(d));
}

TEST(SerializeTest, EngineIndexCache) {
  auto data = std::make_unique<Dataset>(RandomDataset(9, 150, 5, 3));
  std::string path = TempPath("engine_cache.clrm");
  std::remove(path.c_str());

  EngineOptions options;
  options.index.primary_support = 0.25;
  options.calibrate = false;
  options.index_cache_path = path;

  // First build mines and writes the cache.
  auto first = Engine::Build(*data, options);
  ASSERT_TRUE(first.ok());
  std::ifstream probe(path, std::ios::binary);
  EXPECT_TRUE(probe.good());
  probe.close();

  // Second build loads it; results must be identical.
  auto second = Engine::Build(*data, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->index().num_mips(), (*first)->index().num_mips());

  LocalizedQuery query;
  query.ranges = {{0, 0, 0}};
  query.minsupp = 0.4;
  query.minconf = 0.6;
  auto ra = (*first)->Execute(query);
  auto rb = (*second)->Execute(query);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra->rules.SameAs(rb->rules));

  // A different primary support must bypass the stale cache.
  options.index.primary_support = 0.5;
  auto third = Engine::Build(*data, options);
  ASSERT_TRUE(third.ok());
  EXPECT_LE((*third)->index().num_mips(), (*first)->index().num_mips());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace colarm
