#include "mining/rule.h"

#include <algorithm>
#include <bit>
#include <compare>
#include <tuple>
#include <unordered_map>

#include "common/string_util.h"

namespace colarm {

namespace {

// Exact comparison of n1/d1 with n2/d2 by 64-bit cross-multiplication; a
// zero denominator ranks as 0, matching Rule::support() / confidence().
std::strong_ordering CompareRatio(uint32_t n1, uint32_t d1, uint32_t n2,
                                  uint32_t d2) {
  if (d1 == 0) n1 = 0, d1 = 1;
  if (d2 == 0) n2 = 0, d2 = 1;
  return uint64_t{n1} * d2 <=> uint64_t{n2} * d1;
}

// Canonicalize sorts these keys, not the rules. `rank` orders the rule's
// (support, confidence) class: equal ratios share a rank, and a lower rank
// has the higher support, then the higher confidence. The items of each
// rule are encoded into one contiguous scratch array as X+1 ..., 0,
// Y+1 ..., 0 (ids shifted up by one; a schema's item ids stay below
// UINT32_MAX), so plain lexicographic order on the encoding is
// (antecedent, consequent) order: a 0 terminator sorts below every item.
// `head` packs the leading elements, zero-padded past the encoding's end,
// most significant first at the fewest bits that hold the set's largest
// element, so comparing heads as integers settles nearly every item
// comparison without leaving the key.
struct SortKey {
  uint64_t head[2];
  uint32_t rank;
  uint32_t offset;  // of the rule's encoding in the scratch array
  uint32_t index;   // of the rule in the unsorted set
};

// Three-way lexicographic comparison of two encodings, each ending at its
// second 0.
std::strong_ordering CompareEncoded(const uint32_t* a, const uint32_t* b) {
  for (int zeros = 0; zeros < 2; ++a, ++b) {
    if (*a != *b) return *a <=> *b;
    zeros += *a == 0;
  }
  return std::strong_ordering::equal;
}

struct Counts {
  uint32_t itemset;
  uint32_t antecedent;
  uint32_t base;
  bool operator==(const Counts&) const = default;
};

struct CountsHash {
  size_t operator()(const Counts& c) const {
    uint64_t h = (uint64_t{c.itemset} << 32 | c.antecedent) ^
                 uint64_t{c.base} * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ULL);
  }
};

std::strong_ordering CompareClass(const Counts& a, const Counts& b) {
  if (auto c = CompareRatio(a.itemset, a.base, b.itemset, b.base); c != 0) {
    return 0 <=> c;  // support, descending
  }
  return 0 <=> CompareRatio(a.itemset, a.antecedent, b.itemset,
                            b.antecedent);  // confidence, descending
}

// Sets each key's rank. An answer holds few distinct count triples (all
// share |DQ|), so ranking the distinct triples is cheap next to comparing
// ratios inside the rule sort.
void RankClasses(const std::vector<Rule>& rules, std::vector<SortKey>* keys) {
  std::unordered_map<Counts, uint32_t, CountsHash> id_of;
  std::vector<Counts> classes;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    const Counts counts{r.itemset_count, r.antecedent_count, r.base_count};
    auto [it, inserted] = id_of.try_emplace(counts, classes.size());
    if (inserted) classes.push_back(counts);
    (*keys)[i].rank = it->second;  // the class id, until ranked below
  }
  std::vector<uint32_t> order(classes.size());
  for (uint32_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareClass(classes[a], classes[b]) < 0;
  });
  std::vector<uint32_t> rank_of(classes.size());
  uint32_t rank = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && CompareClass(classes[order[k - 1]], classes[order[k]]) != 0) {
      ++rank;
    }
    rank_of[order[k]] = rank;
  }
  for (SortKey& key : *keys) key.rank = rank_of[key.rank];
}

}  // namespace

void AppendRule(const Schema& schema, const Rule& rule, std::string* out) {
  AppendItemset(schema, rule.antecedent, out);
  out->append(" => ");
  AppendItemset(schema, rule.consequent, out);
  out->append(" (supp=");
  AppendFixed(rule.support() * 100.0, 1, out);
  out->append("%, conf=");
  AppendFixed(rule.confidence() * 100.0, 1, out);
  out->append("%)");
}

std::string Rule::ToString(const Schema& schema) const {
  std::string out;
  AppendRule(schema, *this, &out);
  return out;
}

void RuleSet::Canonicalize() {
  std::vector<SortKey> keys(rules.size());
  RankClasses(rules, &keys);
  std::vector<uint32_t> encoded;
  encoded.reserve(rules.size() * 8);  // a typical answer's rule: 6 items
  uint32_t max_code = 0;
  for (size_t i = 0; i < rules.size(); ++i) {
    keys[i].offset = static_cast<uint32_t>(encoded.size());
    keys[i].index = static_cast<uint32_t>(i);
    for (const Itemset* items : {&rules[i].antecedent, &rules[i].consequent}) {
      for (ItemId item : *items) {
        encoded.push_back(item + 1);
        max_code = std::max(max_code, item + 1);
      }
      encoded.push_back(0);
    }
  }
  const int width = std::max(1, static_cast<int>(std::bit_width(max_code)));
  const int per_word = 64 / width;
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t end =
        i + 1 < keys.size() ? keys[i + 1].offset : encoded.size();
    size_t pos = keys[i].offset;
    for (uint64_t& word : keys[i].head) {
      word = 0;
      for (int j = 0; j < per_word; ++j) {
        word = word << width | (pos < end ? encoded[pos++] : 0);
      }
    }
  }
  std::sort(keys.begin(), keys.end(), [&](const SortKey& a,
                                          const SortKey& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.head[0] != b.head[0]) return a.head[0] < b.head[0];
    if (a.head[1] != b.head[1]) return a.head[1] < b.head[1];
    if (auto c = CompareEncoded(&encoded[a.offset], &encoded[b.offset]);
        c != 0) {
      return c < 0;  // antecedent, then consequent
    }
    // Only a hand-built set repeats an (X, Y) pair; its counts keep the
    // order total.
    const Rule& x = rules[a.index];
    const Rule& y = rules[b.index];
    return std::tie(x.itemset_count, x.antecedent_count, x.base_count) <
           std::tie(y.itemset_count, y.antecedent_count, y.base_count);
  });
  std::vector<Rule> sorted;
  sorted.reserve(rules.size());
  for (const SortKey& key : keys) sorted.push_back(std::move(rules[key.index]));
  rules = std::move(sorted);
}

bool RuleSet::SameAs(const RuleSet& other) const {
  if (rules.size() != other.rules.size()) return false;
  RuleSet a = *this;
  RuleSet b = other;
  a.Canonicalize();
  b.Canonicalize();
  for (size_t i = 0; i < a.rules.size(); ++i) {
    const Rule& x = a.rules[i];
    const Rule& y = b.rules[i];
    if (!x.SameRule(y) || x.itemset_count != y.itemset_count ||
        x.antecedent_count != y.antecedent_count ||
        x.base_count != y.base_count) {
      return false;
    }
  }
  return true;
}

}  // namespace colarm
