#include "data/schema.h"

#include <algorithm>

namespace colarm {

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {
  item_base_.reserve(attributes_.size() + 1);
  ItemId next = 0;
  for (const Attribute& attr : attributes_) {
    item_base_.push_back(next);
    next += attr.domain_size();
  }
  item_base_.push_back(next);
  num_items_ = next;
  item_attr_.resize(num_items_);
  label_offset_.reserve(num_items_ + 1);
  for (AttrId a = 0; a < attributes_.size(); ++a) {
    const Attribute& attr = attributes_[a];
    for (ItemId i = item_base_[a]; i < item_base_[a + 1]; ++i) {
      item_attr_[i] = a;
      label_offset_.push_back(static_cast<uint32_t>(labels_.size()));
      labels_ += attr.name;
      labels_ += '=';
      labels_ += attr.values[i - item_base_[a]];
      widest_label_ =
          std::max<size_t>(widest_label_, labels_.size() - label_offset_.back());
    }
  }
  label_offset_.push_back(static_cast<uint32_t>(labels_.size()));
}

Result<AttrId> Schema::AttrIdByName(const std::string& name) const {
  for (AttrId a = 0; a < attributes_.size(); ++a) {
    if (attributes_[a].name == name) return a;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

Result<ValueId> Schema::ValueIdByLabel(AttrId a,
                                       const std::string& label) const {
  if (a >= attributes_.size()) {
    return Status::OutOfRange("attribute id out of range");
  }
  const Attribute& attr = attributes_[a];
  for (uint32_t v = 0; v < attr.values.size(); ++v) {
    if (attr.values[v] == label) return static_cast<ValueId>(v);
  }
  return Status::NotFound("attribute '" + attr.name + "' has no value '" +
                          label + "'");
}

}  // namespace colarm
