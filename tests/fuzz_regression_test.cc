// Every failure the fuzzer has found, checked in as a regression. The
// corpus files under tests/corpus/ replay the exact generated query
// against the exact generated database (reconstructed from the recorded
// table seed) and must now agree across the full default config matrix.
// The hand-minimized cases distill the shared root cause: a rewrite may
// fold a subplan to the untyped empty-set constant (Simplify-FalseSelect),
// and every downstream operator must keep typechecking and evaluating.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adl/type.h"
#include "adl/value.h"
#include "fuzz/oracle.h"
#include "storage/database.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace n2j {
namespace fuzz {
namespace {

using testutil::CorpusCase;
using testutil::LoadCorpus;

TEST(FuzzRegressionTest, CorpusIsNonEmpty) {
  EXPECT_GE(LoadCorpus().size(), 7u);
}

TEST(FuzzRegressionTest, CorpusQueriesMatchAcrossTheDefaultMatrix) {
  for (const CorpusCase& c : LoadCorpus()) {
    ASSERT_NE(c.tables_seed, 0u) << c.file << ": missing '# tables-seed:'";
    ASSERT_FALSE(c.query.empty()) << c.file << ": missing query text";
    FuzzTablesConfig config;
    config.seed = c.tables_seed;
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(AddRandomFuzzTables(db.get(), config).ok()) << c.file;
    OracleReport r =
        RunDifferentialOracle(*db, c.query, DefaultConfigMatrix());
    EXPECT_EQ(r.status, OracleStatus::kOk)
        << c.file << "\nquery: " << c.query << "\n" << r.detail;
  }
}

std::unique_ptr<Database> TinySetDb() {
  auto db = std::make_unique<Database>();
  TypePtr row = Type::Tuple(
      {{"a", Type::Int()},
       {"b", Type::Int()},
       {"c", Type::Set(Type::Tuple({{"d", Type::Int()}}))}});
  EXPECT_TRUE(db->CreateTable("F0", row).ok());
  auto mk = [](int64_t a, int64_t b, std::vector<int64_t> ds) {
    std::vector<Value> c;
    c.reserve(ds.size());
    for (int64_t d : ds) c.push_back(Value::Tuple({Field("d", Value::Int(d))}));
    return Value::Tuple({Field("a", Value::Int(a)), Field("b", Value::Int(b)),
                         Field("c", Value::Set(std::move(c)))});
  };
  EXPECT_TRUE(db->Insert("F0", mk(1, 2, {1})).ok());
  EXPECT_TRUE(db->Insert("F0", mk(2, 1, {})).ok());
  EXPECT_TRUE(db->Insert("F0", mk(3, 3, {1, 2})).ok());
  return db;
}

TEST(FuzzRegressionTest, FalseSelectFoldsStayWellTyped) {
  auto db = TinySetDb();
  const char* queries[] = {
      // Whole query folds to the empty set.
      "select v0.a from v0 in F0 where false",
      // The correlated subselect becomes a nestjoin whose left input
      // folds to the empty set.
      "select (p = v0.a, q = (select v1.b from v1 in F0 where v1.a = v0.a)) "
      "from v0 in F0 where false",
      // A range variable is bound to the empty set's `any` element and
      // fields are accessed through it.
      "select v1.a from v1 in (select v0 from v0 in F0 where false) "
      "where (exists v2 in v1.c : v2.d = v1.a)",
      // A quantifier ranges over the folded empty set (semijoin with an
      // empty right input).
      "select v0.a from v0 in F0 "
      "where (exists v1 in (select w from w in F0 where false) : "
      "v1.a = v0.a)",
  };
  for (const char* q : queries) {
    OracleReport r = RunDifferentialOracle(*db, q, DefaultConfigMatrix());
    EXPECT_EQ(r.status, OracleStatus::kOk) << q << "\n" << r.detail;
  }
}

TEST(FuzzRegressionTest, ParenthesizedSetEqualityIsNotATupleLiteral) {
  // `(W = ...)` parses as a tuple literal; the generator (and users)
  // must spell a bare-identifier set equality as `((W) = ...)`.
  auto db = TinySetDb();
  OracleReport r = RunDifferentialOracle(
      *db,
      "select v0.a from v0 in F0 where ((W) = v0.c) with W = {(d = 1)}",
      DefaultConfigMatrix());
  EXPECT_EQ(r.status, OracleStatus::kOk) << r.detail;
}

}  // namespace
}  // namespace fuzz
}  // namespace n2j
