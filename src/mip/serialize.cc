#include "mip/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>

#include "common/string_util.h"

namespace colarm {

namespace {

constexpr uint32_t kMagic = 0x434c524d;  // "CLRM"
// Version 2 appends an FNV-1a checksum of the whole payload, so corruption
// that survives the structural checks (bit flips in counts, boxes, item
// ids that stay in range) is still rejected deterministically. Version 3
// persists the vertical bitmap index between the MIP records and the
// checksum, so the dense-DQ routes skip its rebuild on cache load; v2
// files are rejected (the engine falls back to a rebuild).
constexpr uint32_t kVersion = 3;
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }

  /// Writes the running checksum of every byte emitted so far. Must be the
  /// last write: the checksum bytes themselves are not accumulated.
  void Checksum() {
    const uint64_t hash = hash_;
    out_.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
  }

  bool ok() const { return static_cast<bool>(out_); }

 private:
  void Raw(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * kFnvPrime;
    }
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(size));
  }
  std::ostream& out_;
  uint64_t hash_ = kFnvOffset;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  uint8_t U8() { return Raw<uint8_t>(); }
  uint16_t U16() { return Raw<uint16_t>(); }
  uint32_t U32() { return Raw<uint32_t>(); }
  uint64_t U64() { return Raw<uint64_t>(); }
  double F64() { return Raw<double>(); }

  /// True iff the next 8 bytes equal the checksum of everything read so
  /// far and the file ends right after them.
  bool ChecksumMatches() {
    const uint64_t expected = hash_;
    uint64_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!in_ || stored != expected) return false;
    return in_.peek() == std::char_traits<char>::eof();
  }

  bool ok() const { return static_cast<bool>(in_); }

 private:
  template <typename T>
  T Raw() {
    T value{};
    in_.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (in_) {
      unsigned char bytes[sizeof(T)];
      std::memcpy(bytes, &value, sizeof(T));
      for (unsigned char b : bytes) hash_ = (hash_ ^ b) * kFnvPrime;
    }
    return value;
  }
  std::istream& in_;
  uint64_t hash_ = kFnvOffset;
};

Status Corrupt(const std::string& what) {
  return Status::ParseError("corrupt index file: " + what);
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  // FNV-1a over the schema shape, record count, and a deterministic cell
  // sample. Cheap, stable, and sensitive to reordering or edits.
  uint64_t hash = kFnvOffset;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= kFnvPrime;
    }
  };
  const Schema& schema = dataset.schema();
  mix(schema.num_attributes());
  mix(dataset.num_records());
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    mix(schema.attribute(a).domain_size());
    for (char c : schema.attribute(a).name) mix(static_cast<uint64_t>(c));
  }
  const uint32_t m = dataset.num_records();
  const uint32_t step = std::max<uint32_t>(1, m / 64);
  for (Tid t = 0; t < m; t += step) {
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      mix((static_cast<uint64_t>(t) << 32) ^ (a << 16) ^
          dataset.Value(t, a));
    }
  }
  return hash;
}

Status SaveMipIndex(const MipIndex& index, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  Writer w(out);
  w.U32(kMagic);
  w.U32(kVersion);
  w.U64(DatasetFingerprint(index.dataset()));
  w.F64(index.options().primary_support);
  w.U32(index.options().rtree.max_entries);
  w.U32(index.options().rtree.min_entries);
  w.U8(index.options().use_str_packing ? 1 : 0);
  w.U32(index.primary_count());
  const uint32_t dims = index.dataset().num_attributes();
  w.U32(dims);
  w.U32(index.num_mips());
  for (uint32_t id = 0; id < index.num_mips(); ++id) {
    const Mip& mip = index.mip(id);
    w.U32(static_cast<uint32_t>(mip.items.size()));
    for (ItemId item : mip.items) w.U32(item);
    w.U32(mip.global_count);
    for (uint32_t d = 0; d < dims; ++d) {
      w.U16(mip.bbox.lo(d));
      w.U16(mip.bbox.hi(d));
    }
  }
  // Vertical bitmap section (v3): raw words, one run per item.
  const VerticalIndex& vertical = index.vertical();
  w.U32(vertical.num_records());
  w.U32(vertical.num_items());
  const uint32_t words_per_item =
      vertical.num_items() == 0 ? 0 : vertical.item(0).num_words();
  w.U32(words_per_item);
  for (ItemId item = 0; item < vertical.num_items(); ++item) {
    const Bitmap& bits = vertical.item(item);
    for (uint32_t word = 0; word < bits.num_words(); ++word) {
      w.U64(bits.words()[word]);
    }
  }
  w.Checksum();
  if (!w.ok()) return Status::IoError("short write to '" + path + "'");
  return Status::OK();
}

Result<MipIndex> LoadMipIndex(const Dataset& dataset,
                              const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  in.seekg(0, std::ios::end);
  const auto file_size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (file_size < 0) return Status::IoError("cannot stat '" + path + "'");

  Reader r(in);
  if (r.U32() != kMagic) {
    return Status::ParseError("'" + path + "' is not a COLARM index file");
  }
  uint32_t version = r.U32();
  if (version != kVersion) {
    return Status::ParseError(
        StrFormat("unsupported index version %u", version));
  }
  if (r.U64() != DatasetFingerprint(dataset)) {
    return Status::FailedPrecondition(
        "index file was built from a different dataset");
  }
  // Every header field is validated before use: a corrupted file must
  // produce a Status, never an out-of-range value that reaches an assert,
  // an unbounded allocation, or float UB downstream.
  MipIndexOptions options;
  options.primary_support = r.F64();
  if (!std::isfinite(options.primary_support) ||
      options.primary_support <= 0.0 || options.primary_support > 1.0) {
    return Corrupt("primary support outside (0, 1]");
  }
  options.rtree.max_entries = r.U32();
  options.rtree.min_entries = r.U32();
  if (options.rtree.max_entries < 2 || options.rtree.min_entries < 1 ||
      options.rtree.min_entries > options.rtree.max_entries / 2) {
    return Corrupt("invalid R-tree fanout bounds");
  }
  options.use_str_packing = r.U8() != 0;
  uint32_t primary_count = r.U32();
  if (primary_count < 1 || primary_count > dataset.num_records()) {
    return Corrupt("primary count outside [1, num_records]");
  }
  uint32_t dims = r.U32();
  if (dims != dataset.num_attributes()) {
    return Status::ParseError("index dimensionality mismatch");
  }
  uint32_t num_mips = r.U32();
  if (!r.ok()) return Status::ParseError("truncated index header");

  // Bound the MIP count by what the file could possibly hold before
  // reserving anything: each MIP takes at least 12 + 4*dims bytes
  // (length, one item, global count, bounding box), and the header plus
  // trailing checksum account for 53 bytes.
  const uint64_t min_mip_bytes = 12 + 4ull * dims;
  const uint64_t payload =
      static_cast<uint64_t>(file_size) > 53
          ? static_cast<uint64_t>(file_size) - 53
          : 0;
  if (num_mips > payload / min_mip_bytes) {
    return Corrupt("MIP count exceeds file size");
  }

  const Schema& schema = dataset.schema();
  const ItemId max_item = schema.num_items();
  std::vector<Mip> mips;
  mips.reserve(num_mips);
  for (uint32_t i = 0; i < num_mips; ++i) {
    Mip mip;
    uint32_t len = r.U32();
    if (len < 1 || len > max_item) return Corrupt("itemset length");
    mip.items.reserve(len);
    for (uint32_t j = 0; j < len; ++j) {
      ItemId item = r.U32();
      if (item >= max_item) return Corrupt("item id out of range");
      mip.items.push_back(item);
    }
    if (!ItemsetIsValid(mip.items)) return Corrupt("itemset ordering");
    for (size_t j = 1; j < mip.items.size(); ++j) {
      if (schema.AttrOfItem(mip.items[j - 1]) ==
          schema.AttrOfItem(mip.items[j])) {
        return Corrupt("two items on one attribute");
      }
    }
    mip.global_count = r.U32();
    if (mip.global_count < primary_count ||
        mip.global_count > dataset.num_records()) {
      return Corrupt("MIP support outside [primary_count, num_records]");
    }
    mip.bbox = Rect::MakeEmpty(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      ValueId lo = r.U16();
      ValueId hi = r.U16();
      if (lo > hi || hi >= schema.attribute(d).domain_size()) {
        return Corrupt("bounding box outside the attribute domain");
      }
      mip.bbox.SetInterval(d, lo, hi);
    }
    if (!r.ok()) return Status::ParseError("truncated MIP record");
    // A saved index lists its MIPs in id order, which is strictly
    // increasing itemset order. The IT-tree's depth-first layout relies on
    // it (a MIP's id is its position there), and a repeated itemset would
    // leave one of the two ids out of the trie.
    if (!mips.empty() && !(mips.back().items < mip.items)) {
      return Corrupt("MIPs not in strictly increasing itemset order");
    }
    mips.push_back(std::move(mip));
  }
  // Vertical bitmap section (v3). Shape must match the dataset exactly;
  // the per-attribute partition check below additionally rejects payloads
  // whose bits cannot be a one-hot re-encoding of *some* relation (wrong
  // cardinalities, overlapping value bitmaps, stray slack bits).
  const uint32_t vertical_records = r.U32();
  const uint32_t vertical_items = r.U32();
  const uint32_t words_per_item = r.U32();
  if (!r.ok()) return Status::ParseError("truncated vertical header");
  if (vertical_records != dataset.num_records() ||
      vertical_items != max_item) {
    return Corrupt("vertical index shape mismatch");
  }
  const uint32_t expected_words =
      (vertical_records + Bitmap::kBitsPerWord - 1) / Bitmap::kBitsPerWord;
  if (words_per_item != expected_words) {
    return Corrupt("vertical word count mismatch");
  }
  std::vector<Bitmap> bitmaps;
  bitmaps.reserve(vertical_items);
  for (ItemId item = 0; item < vertical_items; ++item) {
    Bitmap bits(vertical_records);
    for (uint32_t word = 0; word < bits.num_words(); ++word) {
      bits.mutable_words()[word] = r.U64();
    }
    if (!r.ok()) return Status::ParseError("truncated vertical bitmap");
    bitmaps.push_back(std::move(bits));
  }
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    const ItemId base = schema.item_base(a);
    Bitmap seen(vertical_records);
    uint64_t total = 0;
    for (ValueId v = 0; v < schema.attribute(a).domain_size(); ++v) {
      total += bitmaps[base + v].Count();
      seen.OrWith(bitmaps[base + v]);
    }
    // Exactly one value per record and attribute, and nothing outside the
    // record universe (a set slack bit inflates `total` past m).
    if (total != vertical_records || seen.Count() != vertical_records) {
      return Corrupt("vertical bitmaps are not a record partition");
    }
  }
  if (!r.ChecksumMatches()) return Corrupt("checksum mismatch");
  return MipIndex::Assemble(
      dataset, options, primary_count, std::move(mips), nullptr,
      VerticalIndex::FromBitmaps(std::move(bitmaps), vertical_records));
}

}  // namespace colarm
