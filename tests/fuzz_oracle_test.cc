// The differential oracle's contract: every config cell in the default
// matrix must agree with naive nested-loop evaluation, while the
// deliberately-unsafe grouping cell must NOT — it re-applies the paper's
// Figure 2 Complex Object rewrite without the safety check, which both
// demonstrates the bug and proves the oracle can detect a miscompile.

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "fuzz/fuzzer.h"
#include "fuzz/oracle.h"
#include "oosql/translate.h"
#include "storage/database.h"
#include "storage/datagen.h"

namespace n2j {
namespace fuzz {
namespace {

TEST(FuzzOracleTest, DefaultMatrixHasAtLeastEightConfigs) {
  EXPECT_GE(DefaultConfigMatrix().size(), 8u);
}

TEST(FuzzOracleTest, DefaultMatrixCleanOverManyRounds) {
  FuzzOptions options;
  options.seed = 101;
  options.rounds = 150;
  options.shrink_failures = false;
  FuzzSummary summary = RunFuzzer(options, nullptr, nullptr);
  EXPECT_TRUE(summary.Clean()) << summary.ToString();
  EXPECT_EQ(summary.rounds_run, 150);
  EXPECT_EQ(summary.oracle_ok + summary.skipped_runtime_error,
            summary.rounds_run);
}

TEST(FuzzOracleTest, UnsafeGroupingReproducesTheComplexObjectBug) {
  FuzzOptions options;
  options.seed = 1;
  options.start_round = 200;  // seed 1's first mismatch is round 218
  options.rounds = 60;
  options.matrix = UnsafeGroupingMatrix();
  std::vector<FuzzFailure> failures;
  FuzzSummary summary = RunFuzzer(options, &failures, nullptr);
  ASSERT_GE(summary.mismatches, 1) << summary.ToString();
  EXPECT_EQ(failures[0].failing_config, "force-grouping-unsafe");
  // The shrinker must hand back a reproduction no larger than the
  // original (its acceptance predicate re-runs the oracle, so it still
  // fails by construction).
  EXPECT_FALSE(failures[0].shrunk_query.empty());
  EXPECT_LE(failures[0].shrunk_query.size(), failures[0].query.size());
  EXPECT_FALSE(failures[0].shrunk_db.empty());
}

TEST(FuzzOracleTest, SmallSeedsShareNoRoundSeed) {
  // Campaigns with different seeds must draw different queries: no
  // round seed of one campaign may reappear in another, at any round.
  std::set<uint64_t> seen;
  const int kRounds = 2000;
  const uint64_t seeds[] = {1, 2, 3, 11, 13, 17, 19};
  for (uint64_t seed : seeds) {
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(seen.insert(RoundSeed(seed, round)).second)
          << "seed " << seed << " round " << round;
    }
  }
  EXPECT_EQ(seen.size(), std::size(seeds) * kRounds);
}

TEST(FuzzOracleTest, FailuresAreDeterministicInTheSeed) {
  FuzzOptions options;
  options.seed = 1;
  options.rounds = 10;
  options.start_round = 215;  // round 218 of seed 1 is a known mismatch
  options.matrix = UnsafeGroupingMatrix();
  std::vector<FuzzFailure> a;
  std::vector<FuzzFailure> b;
  RunFuzzer(options, &a, nullptr);
  RunFuzzer(options, &b, nullptr);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 1u);
  EXPECT_EQ(a[0].round, b[0].round);
  EXPECT_EQ(a[0].query, b[0].query);
  EXPECT_EQ(a[0].shrunk_query, b[0].shrunk_query);
  EXPECT_EQ(a[0].shrunk_db, b[0].shrunk_db);
}

void AddSmallJoinTables(Database* db_ptr) {
  Database& db = *db_ptr;
  for (const char* name : {"A", "B"}) {
    N2J_CHECK(db.CreateTable(name, Type::Tuple({{"k", Type::Int()},
                                                {"v", Type::Int()}}))
                  .ok());
  }
  auto row = [](int k, int v) {
    return Value::Tuple({Field("k", Value::Int(k)), Field("v", Value::Int(v))});
  };
  N2J_CHECK(db.Insert("A", row(1, 1)).ok());
  N2J_CHECK(db.Insert("A", row(1, 2)).ok());
  N2J_CHECK(db.Insert("A", row(2, 3)).ok());
  N2J_CHECK(db.Insert("B", row(1, 10)).ok());
  N2J_CHECK(db.Insert("B", row(3, 11)).ok());
}

ExprPtr Naive(const Database& db, const std::string& q) {
  Translator tr(db.schema(), &db);
  Result<TypedExpr> typed = tr.TranslateString(q);
  N2J_CHECK(typed.ok());
  return typed->expr;
}

TEST(FuzzOracleTest, FlatJoinWorkBoundCountsInputsPairsAndOutput) {
  Database db;
  AddSmallJoinTables(&db);
  // 3 + 2 input rows, 2 pairs with x.k = y.k, 2 matching combinations.
  EXPECT_EQ(FlatJoinWorkBound(
                db, Naive(db, "select (p = x.v, q = y.v) from x in A, "
                              "y in B where x.k = y.k and x.v > 0")),
            9u);
  // No cross conjunct: the output is the whole product.
  EXPECT_EQ(FlatJoinWorkBound(db, Naive(db, "select x from x in A, y in B")),
            5u + 6u);
  // Not flat: a non-equality cross conjunct, a subquery, one range.
  EXPECT_EQ(FlatJoinWorkBound(
                db, Naive(db, "select x from x in A, y in B where x.k < y.k")),
            0u);
  EXPECT_EQ(FlatJoinWorkBound(
                db, Naive(db, "select x from x in A, y in B where x.k = y.k "
                              "and exists z in B : z.k = x.k")),
            0u);
  EXPECT_EQ(FlatJoinWorkBound(db, Naive(db, "select x from x in A")), 0u);
}

// The bound sees a defect the cost-vs-heuristic comparison cannot: with
// Rule 2 off, the three-variable chain stays a join correlated on x and
// does quadratic work in every cell, heuristic and cost alike.
TEST(FuzzOracleTest, LinearWorkBoundCatchesACorrelatedChain) {
  Database db;
  XYConfig xy;
  xy.seed = 3;
  xy.x_rows = 40;
  xy.y_rows = 40;
  xy.key_domain = 40;
  ASSERT_TRUE(AddRandomXY(&db, xy).ok());
  xy.seed = 4;
  ASSERT_TRUE(AddRandomXY(&db, xy, "Z", "W").ok());
  const std::string q =
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and y.e = w.a";
  ASSERT_GT(FlatJoinWorkBound(db, Naive(db, q)), 0u);

  OracleConfig flat;
  flat.name = "flat";
  flat.linear_join_work = true;
  OracleReport ok = RunDifferentialOracle(db, q, {flat});
  EXPECT_EQ(ok.status, OracleStatus::kOk) << ok.detail;

  OracleConfig correlated = flat;
  correlated.name = "correlated";
  correlated.rewrite.enable_map_join = false;
  OracleReport bad = RunDifferentialOracle(db, q, {correlated});
  EXPECT_EQ(bad.status, OracleStatus::kMismatch);
  EXPECT_NE(bad.detail.find("linear bound"), std::string::npos) << bad.detail;
}

TEST(FuzzOracleTest, GarbageQueryIsAFrontEndError) {
  Database db;
  OracleReport r =
      RunDifferentialOracle(db, "select (", DefaultConfigMatrix());
  EXPECT_EQ(r.status, OracleStatus::kFrontEndError);
  EXPECT_FALSE(r.detail.empty());
}

}  // namespace
}  // namespace fuzz
}  // namespace n2j
