#include <gtest/gtest.h>

#include "data/schema.h"

namespace colarm {
namespace {

Schema MakeTestSchema() {
  return Schema({
      {"color", {"red", "green", "blue"}},
      {"size", {"S", "M"}},
      {"shape", {"round", "square", "flat", "long"}},
  });
}

TEST(SchemaTest, Counts) {
  Schema schema = MakeTestSchema();
  EXPECT_EQ(schema.num_attributes(), 3u);
  EXPECT_EQ(schema.num_items(), 9u);
}

TEST(SchemaTest, ItemIdsAreDenseAndGroupedByAttribute) {
  Schema schema = MakeTestSchema();
  EXPECT_EQ(schema.item_base(0), 0u);
  EXPECT_EQ(schema.item_base(1), 3u);
  EXPECT_EQ(schema.item_base(2), 5u);
  EXPECT_EQ(schema.ItemOf(0, 2), 2u);
  EXPECT_EQ(schema.ItemOf(1, 0), 3u);
  EXPECT_EQ(schema.ItemOf(2, 3), 8u);
}

TEST(SchemaTest, InverseMappingRoundTrips) {
  Schema schema = MakeTestSchema();
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    for (ValueId v = 0; v < schema.attribute(a).domain_size(); ++v) {
      ItemId item = schema.ItemOf(a, v);
      EXPECT_EQ(schema.AttrOfItem(item), a);
      EXPECT_EQ(schema.ValueOfItem(item), v);
    }
  }
}

TEST(SchemaTest, AttrIdByName) {
  Schema schema = MakeTestSchema();
  ASSERT_TRUE(schema.AttrIdByName("size").ok());
  EXPECT_EQ(schema.AttrIdByName("size").value(), 1u);
  EXPECT_FALSE(schema.AttrIdByName("missing").ok());
  EXPECT_EQ(schema.AttrIdByName("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, ValueIdByLabel) {
  Schema schema = MakeTestSchema();
  ASSERT_TRUE(schema.ValueIdByLabel(0, "blue").ok());
  EXPECT_EQ(schema.ValueIdByLabel(0, "blue").value(), 2u);
  EXPECT_FALSE(schema.ValueIdByLabel(0, "violet").ok());
  EXPECT_FALSE(schema.ValueIdByLabel(99, "red").ok());
}

TEST(SchemaTest, ItemLabel) {
  Schema schema = MakeTestSchema();
  EXPECT_EQ(schema.ItemLabel(schema.ItemOf(1, 1)), "size=M");
  std::string out = "x ";
  schema.AppendItem(schema.ItemOf(1, 1), &out);
  EXPECT_EQ(out, "x size=M");
}

TEST(SchemaTest, EmptySchema) {
  Schema schema;
  EXPECT_EQ(schema.num_attributes(), 0u);
  EXPECT_EQ(schema.num_items(), 0u);
}

}  // namespace
}  // namespace colarm
