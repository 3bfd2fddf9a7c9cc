#include "core/cache_persist.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <set>
#include <span>

#include "common/string_util.h"
#include "mining/local_counter.h"
#include "mip/serialize.h"

namespace colarm {

namespace {

constexpr uint32_t kMagic = 0x434c524d;  // "CLRM", same family as the index
constexpr uint32_t kVersion = 4;  // v1-3 are MIP-index formats; never reused
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr size_t kPayloadAlign = 64;

uint64_t Fnv(std::span<const unsigned char> bytes) {
  uint64_t hash = kFnvOffset;
  for (unsigned char b : bytes) hash = (hash ^ b) * kFnvPrime;
  return hash;
}

Status Corrupt(const std::string& what) {
  return Status::ParseError("corrupt cache file: " + what);
}

class BufWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void Bytes(const void* data, size_t size) { Raw(data, size); }

  /// Zero-pads so the next write lands on a `kPayloadAlign` file offset.
  void AlignPayload() {
    while (buf_.size() % kPayloadAlign != 0) buf_.push_back(0);
  }

  size_t size() const { return buf_.size(); }
  std::span<const unsigned char> Slice(size_t from) const {
    return std::span<const unsigned char>(buf_).subspan(from);
  }
  std::span<const unsigned char> All() const { return buf_; }
  const std::vector<unsigned char>& buffer() const { return buf_; }

 private:
  void Raw(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), bytes, bytes + size);
  }
  std::vector<unsigned char> buf_;
};

/// Bounds-checked cursor over the mapped (or slurped) file image. Every
/// read is validated against the remaining length before dereferencing —
/// truncation can never run the parser off the mapping.
class BufReader {
 public:
  explicit BufReader(std::span<const unsigned char> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t offset() const { return offset_; }
  size_t remaining() const { return ok_ ? data_.size() - offset_ : 0; }

  uint8_t U8() { return Raw<uint8_t>(); }
  uint16_t U16() { return Raw<uint16_t>(); }
  uint32_t U32() { return Raw<uint32_t>(); }
  uint64_t U64() { return Raw<uint64_t>(); }

  bool ReadBytes(void* out, size_t size) {
    if (!Ensure(size)) return false;
    std::memcpy(out, data_.data() + offset_, size);
    offset_ += size;
    return true;
  }

  bool SkipPadding() {
    while (offset_ % kPayloadAlign != 0) {
      if (U8() != 0) return false;  // padding must be zero bytes
      if (!ok_) return false;
    }
    return ok_;
  }

  std::span<const unsigned char> Window(size_t from, size_t to) const {
    return data_.subspan(from, to - from);
  }

 private:
  bool Ensure(size_t size) {
    if (!ok_ || data_.size() - offset_ < size) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T Raw() {
    T value{};
    if (Ensure(sizeof(T))) {
      std::memcpy(&value, data_.data() + offset_, sizeof(T));
      offset_ += sizeof(T);
    }
    return value;
  }

  std::span<const unsigned char> data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

/// The whole file, mmap'ed when possible (PROT_READ MAP_PRIVATE: the page
/// cache serves warm restarts without a copy), slurped otherwise.
class FileImage {
 public:
  ~FileImage() {
    if (mapped_ != nullptr && mapped_ != MAP_FAILED) {
      ::munmap(mapped_, size_);
    }
  }

  Status Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        mapped_ = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                         MAP_PRIVATE, fd, 0);
        if (mapped_ != MAP_FAILED) size_ = static_cast<size_t>(st.st_size);
      }
      ::close(fd);
      if (mapped_ != nullptr && mapped_ != MAP_FAILED) return Status::OK();
      mapped_ = nullptr;
    }
    // Fallback: buffered read (also the path for empty/odd files).
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("cannot open '" + path + "'");
    fallback_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    if (in.bad()) return Status::IoError("cannot read '" + path + "'");
    return Status::OK();
  }

  std::span<const unsigned char> data() const {
    if (mapped_ != nullptr) {
      return {static_cast<const unsigned char*>(mapped_), size_};
    }
    return {reinterpret_cast<const unsigned char*>(fallback_.data()),
            fallback_.size()};
  }

 private:
  void* mapped_ = nullptr;
  size_t size_ = 0;
  std::string fallback_;
};

}  // namespace

Status SaveQueryCache(const QueryCache& cache, const MipIndex& index,
                      const std::string& path) {
  const std::vector<CacheEntrySnapshot> entries = cache.Snapshot();
  const uint32_t dims = index.dataset().num_attributes();

  BufWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.U64(IndexFingerprint(index));
  w.U32(dims);
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const CacheEntrySnapshot& entry : entries) {
    const size_t section_start = w.size();
    w.U8(entry.is_protected ? 1 : 0);
    w.U64(entry.hits);
    w.U64(entry.derivations);
    for (uint32_t d = 0; d < dims; ++d) {
      w.U16(entry.box.lo(d));
      w.U16(entry.box.hi(d));
    }
    w.U32(static_cast<uint32_t>(entry.subset->tids.size()));
    w.U32(static_cast<uint32_t>(entry.memos.size()));
    w.U32(static_cast<uint32_t>(entry.arm_memos.size()));
    w.AlignPayload();
    w.Bytes(entry.subset->tids.data(),
            entry.subset->tids.size() * sizeof(Tid));
    for (const auto& [memo_key, memo] : entry.memos) {
      w.U32(static_cast<uint32_t>(memo_key.first.size()));
      w.Bytes(memo_key.first.data(), memo_key.first.size());
      w.U32(memo_key.second);
      w.U32(memo->superset_counts.back());  // the full count
      w.U32(static_cast<uint32_t>(memo->superset_counts.size()));
      w.Bytes(memo->superset_counts.data(),
              memo->superset_counts.size() * sizeof(uint32_t));
    }
    for (const auto& [arm_key, memo] : entry.arm_memos) {
      w.U32(static_cast<uint32_t>(arm_key.first.size()));
      w.Bytes(arm_key.first.data(), arm_key.first.size());
      w.U32(arm_key.second);  // local minimum count
      w.U64(memo->local_cfis);
      w.U32(static_cast<uint32_t>(memo->qualified.size()));
      for (const QualifiedItemset& q : memo->qualified) {
        w.U32(q.mip_id);
        w.U32(q.local_count);
      }
    }
    w.U64(Fnv(w.Slice(section_start)));
  }
  w.U64(Fnv(w.All()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(w.buffer().data()),
            static_cast<std::streamsize>(w.buffer().size()));
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::OK();
}

Status LoadQueryCache(const MipIndex& index, const std::string& path,
                      QueryCache* cache) {
  FileImage image;
  Status opened = image.Open(path);
  if (!opened.ok()) return opened;
  const std::span<const unsigned char> data = image.data();

  BufReader r(data);
  if (r.U32() != kMagic || !r.ok()) {
    return Status::ParseError("'" + path + "' is not a COLARM cache file");
  }
  const uint32_t version = r.U32();
  if (version != kVersion || !r.ok()) {
    return Status::ParseError(
        StrFormat("unsupported cache version %u", version));
  }
  if (r.U64() != IndexFingerprint(index) || !r.ok()) {
    return Status::FailedPrecondition(
        "cache file was saved against a different index");
  }
  const Dataset& dataset = index.dataset();
  const Schema& schema = dataset.schema();
  const uint32_t dims = r.U32();
  if (dims != dataset.num_attributes()) {
    return Corrupt("dimensionality mismatch");
  }
  const uint32_t entry_count = r.U32();
  if (!r.ok()) return Corrupt("truncated header");
  // Bound the entry count by what the file could possibly hold before
  // reserving anything: each section takes at least its fixed fields plus
  // the section checksum.
  const uint64_t min_entry_bytes = 29 + 4ull * dims + 8;
  if (entry_count > r.remaining() / min_entry_bytes) {
    return Corrupt("entry count exceeds file size");
  }

  std::vector<CacheEntrySnapshot> entries;
  entries.reserve(entry_count);
  std::set<std::string> boxes;
  for (uint32_t i = 0; i < entry_count; ++i) {
    const size_t section_start = r.offset();
    CacheEntrySnapshot snap;
    const uint8_t protected_flag = r.U8();
    if (protected_flag > 1) return Corrupt("segment flag out of range");
    snap.is_protected = protected_flag != 0;
    snap.hits = r.U64();
    snap.derivations = r.U64();
    Rect box = Rect::MakeEmpty(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      const ValueId lo = r.U16();
      const ValueId hi = r.U16();
      if (!r.ok()) return Corrupt("truncated section");
      if (lo > hi || hi >= schema.attribute(d).domain_size()) {
        return Corrupt("box outside the attribute domain");
      }
      box.SetInterval(d, lo, hi);
    }
    if (!boxes.insert(CanonicalBoxKey(box)).second) {
      return Corrupt("repeated box");
    }
    snap.box = box;
    const uint32_t tid_count = r.U32();
    const uint32_t memo_count = r.U32();
    const uint32_t arm_count = r.U32();
    if (!r.ok()) return Corrupt("truncated section");
    if (tid_count > dataset.num_records()) {
      return Corrupt("tid count exceeds the relation");
    }
    if (!r.SkipPadding()) return Corrupt("nonzero payload padding");
    if (tid_count * sizeof(Tid) > r.remaining()) {
      return Corrupt("tid payload exceeds file size");
    }
    FocalSubset subset;
    subset.box = box;
    subset.tids.resize(tid_count);
    if (tid_count > 0 &&
        !r.ReadBytes(subset.tids.data(), tid_count * sizeof(Tid))) {
      return Corrupt("truncated tid payload");
    }
    for (uint32_t t = 0; t < tid_count; ++t) {
      if (subset.tids[t] >= dataset.num_records() ||
          (t > 0 && subset.tids[t] <= subset.tids[t - 1])) {
        return Corrupt("tid list is not strictly increasing in range");
      }
    }
    snap.subset = std::make_shared<const FocalSubset>(std::move(subset));
    for (uint32_t m = 0; m < memo_count; ++m) {
      const uint32_t key_len = r.U32();
      if (!r.ok() || key_len > r.remaining()) {
        return Corrupt("memo key exceeds file size");
      }
      std::string constraint_key(key_len, '\0');
      if (key_len > 0 && !r.ReadBytes(constraint_key.data(), key_len)) {
        return Corrupt("truncated memo key");
      }
      const uint32_t mip_id = r.U32();
      if (!r.ok() || mip_id >= index.num_mips()) {
        return Corrupt("memo MIP id out of range");
      }
      const uint32_t full_count = r.U32();
      if (full_count > tid_count) {
        return Corrupt("memo count exceeds the subset");
      }
      // A table is replayed by mask over the MIP's items, so it must hold
      // exactly one count per subset of them, from the whole subset ([0])
      // down to the full itemset. Older builds also stored bare full counts
      // (an empty table), which nothing can replay: those are dropped.
      const uint32_t table_len = r.U32();
      if (!r.ok() || table_len > r.remaining() / sizeof(uint32_t)) {
        return Corrupt("memo table exceeds file size");
      }
      if (table_len == 0) continue;
      const size_t items = index.mip(mip_id).items.size();
      if (items > LocalSubsetCounter::kMaxMaskItems ||
          table_len != size_t{1} << items) {
        return Corrupt("memo table length does not match the itemset");
      }
      CountMemoEntry memo;
      memo.superset_counts.resize(table_len);
      if (!r.ReadBytes(memo.superset_counts.data(),
                       table_len * sizeof(uint32_t))) {
        return Corrupt("truncated memo table");
      }
      if (memo.superset_counts.front() != tid_count ||
          memo.superset_counts.back() != full_count) {
        return Corrupt("memo table disagrees with the subset");
      }
      snap.memos.emplace_back(
          std::make_pair(std::move(constraint_key), mip_id),
          std::make_shared<const CountMemoEntry>(std::move(memo)));
    }
    for (uint32_t m = 0; m < arm_count; ++m) {
      const uint32_t key_len = r.U32();
      if (!r.ok() || key_len > r.remaining()) {
        return Corrupt("ARM memo key exceeds file size");
      }
      std::string constraint_key(key_len, '\0');
      if (key_len > 0 && !r.ReadBytes(constraint_key.data(), key_len)) {
        return Corrupt("truncated ARM memo key");
      }
      const uint32_t min_count = r.U32();
      if (!r.ok() || min_count > dataset.num_records()) {
        return Corrupt("ARM memo minimum count exceeds the relation");
      }
      ArmMemoEntry memo;
      memo.local_cfis = r.U64();
      const uint32_t pair_count = r.U32();
      if (!r.ok() || pair_count > r.remaining() / (2 * sizeof(uint32_t))) {
        return Corrupt("ARM memo qualified set exceeds file size");
      }
      memo.qualified.reserve(pair_count);
      for (uint32_t p = 0; p < pair_count; ++p) {
        const uint32_t mip_id = r.U32();
        const uint32_t count = r.U32();
        if (!r.ok() || mip_id >= index.num_mips()) {
          return Corrupt("ARM memo MIP id out of range");
        }
        if (count > tid_count) {
          return Corrupt("ARM memo count exceeds the subset");
        }
        if (p > 0 && mip_id <= memo.qualified.back().mip_id) {
          return Corrupt("ARM memo qualified set is not strictly increasing");
        }
        memo.qualified.push_back({mip_id, count});
      }
      snap.arm_memos.emplace_back(
          std::make_pair(std::move(constraint_key), min_count),
          std::make_shared<const ArmMemoEntry>(std::move(memo)));
    }
    const uint64_t section_hash = Fnv(r.Window(section_start, r.offset()));
    if (r.U64() != section_hash || !r.ok()) {
      return Corrupt("section checksum mismatch");
    }
    entries.push_back(std::move(snap));
  }
  const uint64_t file_hash = Fnv(r.Window(0, r.offset()));
  if (r.U64() != file_hash || !r.ok()) return Corrupt("checksum mismatch");
  if (r.remaining() != 0) return Corrupt("trailing garbage");

  cache->Restore(std::move(entries));
  return Status::OK();
}

}  // namespace colarm
