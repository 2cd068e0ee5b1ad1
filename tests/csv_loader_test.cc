#include "storage/csv_loader.h"

#include <fstream>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace n2j {
namespace {

class CsvLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("P", Type::Tuple({{"name", Type::String()},
                                                  {"price", Type::Int()},
                                                  {"weight", Type::Double()},
                                                  {"avail", Type::Bool()}}))
                    .ok());
  }
  Database db_;
};

TEST_F(CsvLoaderTest, BasicLoad) {
  Result<size_t> n = LoadCsv(&db_, "P",
                             "name,price,weight,avail\n"
                             "bolt,3,0.5,true\n"
                             "nut,2,0.1,false\n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2u);
  const Table* t = db_.FindTable("P");
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ(t->rows()[0].FindField("name")->string_value(), "bolt");
  EXPECT_EQ(t->rows()[0].FindField("price")->int_value(), 3);
  EXPECT_DOUBLE_EQ(t->rows()[0].FindField("weight")->double_value(), 0.5);
  EXPECT_EQ(t->rows()[1].FindField("avail")->bool_value(), false);
}

TEST_F(CsvLoaderTest, QuotedFieldsWithDelimitersAndNewlines) {
  Result<size_t> n = LoadCsv(&db_, "P",
                             "name,price,weight,avail\n"
                             "\"bolt, large\",3,0.5,true\n"
                             "\"multi\nline\",1,1.0,false\n"
                             "\"with \"\"quotes\"\"\",2,2.0,true\n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
  const Table* t = db_.FindTable("P");
  EXPECT_EQ(t->rows()[0].FindField("name")->string_value(), "bolt, large");
  EXPECT_EQ(t->rows()[1].FindField("name")->string_value(), "multi\nline");
  EXPECT_EQ(t->rows()[2].FindField("name")->string_value(),
            "with \"quotes\"");
}

TEST_F(CsvLoaderTest, NoHeaderMode) {
  CsvOptions opts;
  opts.has_header = false;
  Result<size_t> n = LoadCsv(&db_, "P", "bolt,3,0.5,true\n", opts);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST_F(CsvLoaderTest, CustomDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  Result<size_t> n =
      LoadCsv(&db_, "P", "name;price;weight;avail\nbolt;3;0.5;true\n", opts);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1u);
}

TEST_F(CsvLoaderTest, CrlfLineEndings) {
  Result<size_t> n = LoadCsv(&db_, "P",
                             "name,price,weight,avail\r\n"
                             "bolt,3,0.5,true\r\n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1u);
}

TEST_F(CsvLoaderTest, ErrorsAreDescriptive) {
  // Wrong header name.
  Result<size_t> bad_header = LoadCsv(&db_, "P",
                                      "nome,price,weight,avail\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.status().message().find("nome"), std::string::npos);
  // Column count mismatch.
  Result<size_t> bad_count = LoadCsv(&db_, "P",
                                     "name,price,weight,avail\nbolt,3\n");
  ASSERT_FALSE(bad_count.ok());
  // Type coercion failure names record and column.
  Result<size_t> bad_type = LoadCsv(&db_, "P",
                                    "name,price,weight,avail\n"
                                    "bolt,notanumber,0.5,true\n");
  ASSERT_FALSE(bad_type.ok());
  EXPECT_NE(bad_type.status().message().find("price"), std::string::npos);
  // Unknown table.
  EXPECT_FALSE(LoadCsv(&db_, "NOPE", "a\n1\n").ok());
}

// A number must fill its whole field and fit its type. Each rejected
// field below once loaded: strtoll clamped the overflow to INT64_MAX,
// the NUL byte ended the parse at "12", strtod overflowed to ±inf.
TEST_F(CsvLoaderTest, NumbersMustFillTheFieldAndFitTheType) {
  struct Case {
    std::string price, weight, what;
  };
  const Case cases[] = {
      {"99999999999999999999", "0.5", "as int"},
      {std::string("12\0x", 4), "0.5", "as int"},
      {"3", "1e999", "as double"},
      {"3", "-1e999", "as double"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.price + " " + c.weight);
    Result<size_t> r =
        LoadCsv(&db_, "P", "name,price,weight,avail\nbolt," + c.price +
                               "," + c.weight + ",true\n");
    EXPECT_FALSE(r.ok());
    if (r.ok()) continue;
    EXPECT_NE(r.status().message().find(c.what), std::string::npos)
        << r.status().ToString();
  }
  // Underflow toward 0 is not an overflow: the field still loads.
  Result<size_t> tiny =
      LoadCsv(&db_, "P", "name,price,weight,avail\nbolt,3,1e-400,true\n");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
}

TEST_F(CsvLoaderTest, NonAtomicColumnsRejected) {
  ASSERT_TRUE(
      db_.CreateTable("S", Type::Tuple({{"c", Type::Set(Type::Int())}}))
          .ok());
  Result<size_t> r = LoadCsv(&db_, "S", "c\nx\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("non-atomic"), std::string::npos);
}

TEST_F(CsvLoaderTest, EmptyAsNullOption) {
  CsvOptions opts;
  opts.empty_as_null = true;
  Result<size_t> n = LoadCsv(&db_, "P",
                             "name,price,weight,avail\n"
                             "bolt,,0.5,true\n",
                             opts);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(db_.FindTable("P")->rows()[0].FindField("price")->is_null());
}

TEST_F(CsvLoaderTest, LoadedDataIsQueryable) {
  ASSERT_TRUE(LoadCsv(&db_, "P",
                      "name,price,weight,avail\n"
                      "bolt,3,0.5,true\n"
                      "nut,2,0.1,false\n"
                      "washer,7,0.2,true\n")
                  .ok());
  ExprPtr q = testutil::TranslateOrDie(
      db_, "select p.name from p in P where p.price > 2 and p.avail");
  Value v = testutil::EvalExpr(db_, q);
  EXPECT_EQ(v, Value::Set({Value::String("bolt"), Value::String("washer")}));
}

TEST_F(CsvLoaderTest, FileLoading) {
  std::string path = ::testing::TempDir() + "/n2j_csv_test.csv";
  {
    std::ofstream out(path);
    out << "name,price,weight,avail\nbolt,3,0.5,true\n";
  }
  Result<size_t> n = LoadCsvFile(&db_, "P", path);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1u);
  EXPECT_FALSE(LoadCsvFile(&db_, "P", "/nonexistent/x.csv").ok());
}

}  // namespace
}  // namespace n2j
