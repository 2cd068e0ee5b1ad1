#include "adl/schema.h"

#include <gtest/gtest.h>

namespace n2j {
namespace {

TEST(SchemaTest, SupplierPartSchemaShape) {
  Schema s = MakeSupplierPartSchema();
  const ClassDef* part = s.FindClass("Part");
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(part->extent, "PART");
  EXPECT_EQ(part->oid_field, "pid");
  // (pid : oid, pname : string, price : int, color : string)
  TypePtr obj = part->ObjectType();
  EXPECT_EQ(obj->fields().size(), 4u);
  EXPECT_TRUE(obj->FindField("pid")->is_oid());
  EXPECT_TRUE(obj->FindField("price")->is_int());

  const ClassDef* sup = s.FindClassByExtent("SUPPLIER");
  ASSERT_NE(sup, nullptr);
  EXPECT_EQ(sup->name, "Supplier");
  TypePtr parts = sup->ObjectType()->FindField("parts");
  ASSERT_NE(parts, nullptr);
  ASSERT_TRUE(parts->is_set());
  EXPECT_TRUE(parts->element()->FindField("pid")->is_ref());

  const ClassDef* del = s.FindClass("Delivery");
  ASSERT_NE(del, nullptr);
  EXPECT_TRUE(del->ObjectType()->FindField("supplier")->is_ref());
}

TEST(SchemaTest, ClassIdsAreSequential) {
  Schema s = MakeSupplierPartSchema();
  EXPECT_EQ(s.FindClass("Part")->class_id, 1);
  EXPECT_EQ(s.FindClass("Supplier")->class_id, 2);
  EXPECT_EQ(s.FindClass("Delivery")->class_id, 3);
  EXPECT_EQ(s.FindClassById(2), s.FindClass("Supplier"));
  EXPECT_EQ(s.FindClassById(0), nullptr);
  EXPECT_EQ(s.FindClassById(99), nullptr);
}

TEST(SchemaTest, RegisteredClassTypesAreBuiltOnce) {
  Schema s = MakeSupplierPartSchema();
  const ClassDef* part = s.FindClass("Part");
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(part->ObjectType().get(), part->ObjectType().get());
  EXPECT_EQ(part->ExtentType()->element().get(), part->ObjectType().get());
  EXPECT_EQ(ClassDef().ObjectType(), nullptr);
}

TEST(SchemaTest, DuplicateNamesRejected) {
  Schema s;
  ClassDef a;
  a.name = "A";
  a.extent = "AS";
  a.oid_field = "oid";
  ASSERT_TRUE(s.AddClass(a).ok());
  ClassDef dup_name;
  dup_name.name = "A";
  dup_name.extent = "OTHER";
  EXPECT_FALSE(s.AddClass(dup_name).ok());
  ClassDef dup_extent;
  dup_extent.name = "B";
  dup_extent.extent = "AS";
  EXPECT_FALSE(s.AddClass(dup_extent).ok());
}

TEST(SchemaTest, ToStringContainsDeclarations) {
  Schema s = MakeSupplierPartSchema();
  std::string text = s.ToString();
  EXPECT_NE(text.find("class Supplier with extension SUPPLIER oid eid"),
            std::string::npos);
  EXPECT_NE(text.find("price : int"), std::string::npos);
}

}  // namespace
}  // namespace n2j
