#ifndef COLARM_DATA_SCHEMA_H_
#define COLARM_DATA_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/types.h"

namespace colarm {

/// One categorical (or discretized quantitative) attribute: a name plus an
/// ordered list of value labels. Value order matters: focal subsets select
/// contiguous value-id intervals, so discretizers emit bins in domain order.
struct Attribute {
  std::string name;
  std::vector<std::string> values;

  uint32_t domain_size() const { return static_cast<uint32_t>(values.size()); }
};

/// Relation schema: the attribute list plus the global item-id space that
/// maps every (attribute, value) pair to a dense ItemId. Items of attribute
/// `a` occupy the contiguous id range [item_base(a), item_base(a+1)).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes);

  uint32_t num_attributes() const {
    return static_cast<uint32_t>(attributes_.size());
  }
  uint32_t num_items() const { return num_items_; }

  const Attribute& attribute(AttrId a) const { return attributes_[a]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Dense item id of (attribute a, value v).
  ItemId ItemOf(AttrId a, ValueId v) const { return item_base_[a] + v; }
  ItemId item_base(AttrId a) const { return item_base_[a]; }

  /// Inverse mapping: which attribute / value an item id denotes.
  AttrId AttrOfItem(ItemId item) const { return item_attr_[item]; }
  ValueId ValueOfItem(ItemId item) const {
    return static_cast<ValueId>(item - item_base_[item_attr_[item]]);
  }

  /// Attribute index by name; kInvalidItem-like sentinel via Result.
  Result<AttrId> AttrIdByName(const std::string& name) const;
  /// Value index of `label` within attribute `a`.
  Result<ValueId> ValueIdByLabel(AttrId a, const std::string& label) const;

  /// "Attr=value" rendering of an item, e.g. "Age=20-30" — built once at
  /// construction, so printing an item is a single append.
  std::string_view ItemLabel(ItemId item) const {
    return std::string_view(labels_).substr(
        label_offset_[item], label_offset_[item + 1] - label_offset_[item]);
  }
  /// Length of the longest item label (0 for an empty schema).
  size_t widest_label() const { return widest_label_; }
  /// The item writer: appends ItemLabel(item) to `out`.
  void AppendItem(ItemId item, std::string* out) const {
    out->append(ItemLabel(item));
  }

 private:
  std::vector<Attribute> attributes_;
  std::vector<ItemId> item_base_;   // size num_attributes()+1
  std::vector<AttrId> item_attr_;   // size num_items()
  uint32_t num_items_ = 0;
  std::string labels_;                  // every item's label, concatenated
  std::vector<uint32_t> label_offset_;  // size num_items()+1, into labels_
  size_t widest_label_ = 0;
};

}  // namespace colarm

#endif  // COLARM_DATA_SCHEMA_H_
