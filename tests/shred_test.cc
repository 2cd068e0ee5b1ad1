// The shredded backend: translator structure, backend equivalence
// against the nested-loop interpreter, stitching edge cases (empty
// inner sets, duplicates under set semantics, three-level nesting),
// error parity serial and across morsel boundaries, exact serial ≡
// parallel counters, and the span-sum invariant on the flat-DAG
// executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "adl/printer.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "shred/shred.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::SmallSupplierDb;
using testutil::TranslateOrDie;

EvalOptions ShredOpts(int num_threads = 1) {
  EvalOptions o;
  o.backend = Backend::kShredded;
  o.num_threads = num_threads;
  return o;
}

Result<Value> Interp(const Database& db, const ExprPtr& e) {
  EvalOptions o;
  EvalStats stats;
  return shred::EvalWithBackend(db, e, o, &stats);
}

/// Evaluates `e` under both backends with the given options; the
/// results must agree bit-for-bit whenever the interpreter succeeds,
/// and the shredded backend may only fail when the interpreter fails.
void CheckBackends(const Database& db, const ExprPtr& e,
                   EvalOptions opts = EvalOptions()) {
  opts.backend = Backend::kNested;
  EvalStats nested_stats;
  Result<Value> nested =
      shred::EvalWithBackend(db, e, opts, &nested_stats);
  opts.backend = Backend::kShredded;
  EvalStats shred_stats;
  Result<Value> shredded =
      shred::EvalWithBackend(db, e, opts, &shred_stats);
  if (nested.ok()) {
    ASSERT_TRUE(shredded.ok())
        << AlgebraStr(e) << "\nshredded error where interpreter succeeded: "
        << shredded.status().ToString();
    EXPECT_EQ(*nested, *shredded) << AlgebraStr(e);
  } else {
    EXPECT_FALSE(shredded.ok())
        << AlgebraStr(e) << "\nshredded succeeded where interpreter failed: "
        << nested.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Translator structure
// ---------------------------------------------------------------------

TEST(ShredTranslate, NestedSelectClauseBecomesTwoNodeDag) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  ExprPtr e = TranslateOrDie(
      *db,
      "select (sname = s.sname, ps = select p from p in s.parts) "
      "from s in SUPPLIER");
  shred::ShredPlan plan = shred::ShredQuery(e);
  ASSERT_FALSE(plan.scalar_root);
  ASSERT_EQ(plan.nodes.size(), 2u) << plan.Describe();

  const shred::FlatNode& root = plan.nodes[0];
  ASSERT_EQ(root.ranges.size(), 1u) << plan.Describe();
  EXPECT_EQ(root.ranges[0].kind, shred::RangeKind::kExtent);
  EXPECT_EQ(root.ranges[0].table, "SUPPLIER");
  ASSERT_EQ(root.out.kind, shred::OutputSpec::Kind::kTuple);
  ASSERT_EQ(root.out.fields.size(), 2u);
  EXPECT_EQ(root.out.fields[0].kind, shred::OutputSpec::Kind::kScalar);
  ASSERT_EQ(root.out.fields[1].kind, shred::OutputSpec::Kind::kChild);
  EXPECT_EQ(root.out.fields[1].child, 1);

  const shred::FlatNode& inner = plan.nodes[1];
  ASSERT_EQ(inner.ctx_vars.size(), 1u);
  EXPECT_EQ(inner.ctx_vars[0], root.ranges[0].var);
  ASSERT_EQ(inner.ranges.size(), 1u) << plan.Describe();
  EXPECT_EQ(inner.ranges[0].kind, shred::RangeKind::kChildAttr);
  EXPECT_EQ(inner.ranges[0].attr, "parts");
  EXPECT_EQ(plan.structural_ranges, 2);
}

TEST(ShredTranslate, SelectLayersCollapseIntoRangePredicate) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  ExprPtr e = TranslateOrDie(
      *db, "select p.pname from p in PART where p.color = \"red\"");
  shred::ShredPlan plan = shred::ShredQuery(e);
  ASSERT_FALSE(plan.scalar_root);
  ASSERT_EQ(plan.nodes.size(), 1u) << plan.Describe();
  ASSERT_EQ(plan.nodes[0].ranges.size(), 1u);
  EXPECT_EQ(plan.nodes[0].ranges[0].kind, shred::RangeKind::kExtent);
  EXPECT_NE(plan.nodes[0].ranges[0].pred, nullptr) << plan.Describe();
}

TEST(ShredTranslate, NonComprehensionRootDegeneratesToScalar) {
  shred::ShredPlan plan = shred::ShredQuery(Expr::Const(Value::Int(7)));
  EXPECT_TRUE(plan.scalar_root);
  EXPECT_TRUE(plan.nodes.empty());

  std::unique_ptr<Database> db = SmallSupplierDb();
  EvalStats stats;
  Result<Value> v = shred::EvalShredded(*db, Expr::Const(Value::Int(7)),
                                        EvalOptions(), &stats);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(7));
}

// ---------------------------------------------------------------------
// Stitching edge cases
// ---------------------------------------------------------------------

class ShredStitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    // N: three-level nesting with empty sets at both inner levels.
    TypePtr leaf = Type::Set(Type::Int());
    TypePtr mid = Type::Set(Type::Tuple({{"j", Type::Int()},
                                         {"zs", leaf}}));
    ASSERT_TRUE(db_->CreateTable(
                       "N", Type::Tuple({{"k", Type::Int()}, {"ys", mid}}))
                    .ok());
    auto z = [](std::vector<int> xs) {
      std::vector<Value> vs;
      for (int x : xs) vs.push_back(Value::Int(x));
      return Value::Set(std::move(vs));
    };
    auto y = [&](int j, std::vector<int> zs) {
      return Value::Tuple({Field("j", Value::Int(j)), Field("zs", z(zs))});
    };
    auto row = [&](int k, std::vector<Value> ys) {
      ASSERT_TRUE(db_->Insert("N", Value::Tuple(
                                       {Field("k", Value::Int(k)),
                                        Field("ys", Value::Set(ys))}))
                      .ok());
    };
    row(1, {y(10, {1, 2, 3}), y(11, {})});
    row(2, {});                        // empty middle set
    row(3, {y(12, {4}), y(13, {4})});  // duplicate leaf values
    row(4, {y(10, {1, 2, 3})});        // shares inner structure with k=1

    // D: heavy duplication under set semantics.
    ASSERT_TRUE(db_->CreateTable(
                       "D", Type::Tuple({{"k", Type::Int()},
                                         {"v", Type::Int()}}))
                    .ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db_->Insert("D", Value::Tuple(
                                       {Field("k", Value::Int(i % 3)),
                                        Field("v", Value::Int(i))}))
                      .ok());
    }
  }
  std::unique_ptr<Database> db_;
};

TEST_F(ShredStitchTest, EmptyInnerSetsSurvive) {
  // Rows whose set attribute is empty must appear with ∅, not vanish.
  ExprPtr e = TranslateOrDie(
      *db_, "select (k = x.k, js = select y.j from y in x.ys) from x in N");
  CheckBackends(*db_, e);

  EvalStats stats;
  Result<Value> v =
      shred::EvalShredded(*db_, e, EvalOptions(), &stats);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->set_size(), 4u);  // k=2 present with js = {}
  bool saw_empty = false;
  for (const Value& t : v->elements()) {
    if (t.FindField("js")->set_size() == 0) saw_empty = true;
  }
  EXPECT_TRUE(saw_empty) << v->ToString();
}

TEST_F(ShredStitchTest, DuplicatesCollapseUnderSetSemantics) {
  // 40 rows project onto 3 distinct keys; both backends must dedup
  // identically. Also: two outer rows producing identical nested
  // results must collapse to one element of the outer set.
  CheckBackends(*db_, TranslateOrDie(*db_, "select d.k from d in D"));
  CheckBackends(*db_, TranslateOrDie(
                          *db_,
                          "select (j = y.j, zs = y.zs) from x in N, "
                          "y in x.ys"));
}

TEST_F(ShredStitchTest, ThreeLevelNesting) {
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (k = x.k, inner = select (j = y.j, "
      "                                 leaf = select z from z in y.zs) "
      "                 from y in x.ys) "
      "from x in N");
  CheckBackends(*db_, e);

  EvalStats stats;
  std::string plan_text;
  Result<Value> v =
      shred::EvalShredded(*db_, e, EvalOptions(), &stats, &plan_text);
  ASSERT_TRUE(v.ok());
  // Three levels ⇒ three DAG nodes.
  EXPECT_NE(plan_text.find("node2"), std::string::npos) << plan_text;
}

TEST_F(ShredStitchTest, FlattenCollapsesIntoStitchedUnion) {
  CheckBackends(*db_,
                TranslateOrDie(*db_, "select z from x in N, y in x.ys, "
                                     "z in y.zs"));
}

// ---------------------------------------------------------------------
// Backend equivalence on the supplier–part workload
// ---------------------------------------------------------------------

TEST(ShredBackend, SupplierPartQueriesAgreeUnderAllJoinModes) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  const char* queries[] = {
      // Nested select clause (Fig. 1 shape).
      "select (sname = s.sname, ps = select p from p in s.parts) "
      "from s in SUPPLIER",
      // Filtered extent with an equi-join-shaped predicate: exercises
      // the hash/sort-merge expansion inside a flat node.
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price",
      // Correlated filter on the child range.
      "select (sname = s.sname, "
      "        cheap = select z.pid from z in s.parts) "
      "from s in SUPPLIER where s.sname <> \"s1\"",
      // Flatten over a set attribute.
      "select z from s in SUPPLIER, z in s.parts",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    ExprPtr e = TranslateOrDie(*db, q);
    for (JoinAlgorithm alg :
         {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash,
          JoinAlgorithm::kSortMerge}) {
      EvalOptions opts;
      opts.join_algorithm = alg;
      opts.use_hash_joins = alg != JoinAlgorithm::kNestedLoop;
      CheckBackends(*db, e, opts);
    }
    // Parallel delegates.
    EvalOptions mt;
    mt.num_threads = 4;
    CheckBackends(*db, e, mt);
  }
}

TEST(ShredBackend, ScalarEngineThreadCountsAgreeWithExactStats) {
  // The shredded engine under num_threads {1,2,4}:
  // morsel order restores row order bit-for-bit, and successful queries
  // merge to exactly the serial counters — the morsels partition the
  // same row space the serial loops walk.
  std::unique_ptr<Database> db = SmallSupplierDb();
  const char* queries[] = {
      "select (sname = s.sname, ps = select p from p in s.parts) "
      "from s in SUPPLIER",
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price",
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price < y.price",
      "select z from s in SUPPLIER, z in s.parts",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    ExprPtr e = TranslateOrDie(*db, q);
    EvalOptions serial;
    serial.backend = Backend::kShredded;
    serial.num_threads = 1;
    EvalStats s1;
    Result<Value> v1 = shred::EvalWithBackend(*db, e, serial, &s1);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    for (int nt : {2, 4}) {
      EvalOptions mt = serial;
      mt.num_threads = nt;
      EvalStats sn;
      Result<Value> vn = shred::EvalWithBackend(*db, e, mt, &sn);
      ASSERT_TRUE(vn.ok()) << "nt=" << nt << "\n" << vn.status().ToString();
      EXPECT_EQ(*v1, *vn) << "nt=" << nt;
      EXPECT_EQ(s1.Compact(), sn.Compact()) << "nt=" << nt;
    }
  }
}

TEST(ShredBackend, ErrorParityOnNonBooleanPredicate) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  // σ[p : 1](PART): the interpreter rejects the non-boolean predicate;
  // the shredded backend must fail too (never silently succeed).
  ExprPtr bad = Expr::Select("p", Expr::Const(Value::Int(1)),
                             Expr::Table("PART"));
  CheckBackends(*db, bad);
}

TEST(ShredBackend, ErrorParityOnMissingTable) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  ExprPtr bad = Expr::Map("x", Expr::Var("x"), Expr::Table("NO_SUCH"));
  CheckBackends(*db, bad);
}

// ---------------------------------------------------------------------
// Row-wise engine on the former column-batch engine's inputs
// ---------------------------------------------------------------------
// The shredded backend once had a second, column-batch engine. These
// cases keep the names they had then and pin the row-wise engine on the
// same inputs: paper shapes, empty and fully filtered ranges, morsel
// boundaries, first-error order, range joins, exact serial ≡ parallel
// counters, and the two counters perfbench still reads.

// T(a int) with a = 1..12: `t.a - 5` is zero at the fifth row.
std::unique_ptr<Database> DivTrapDb() {
  auto db = std::make_unique<Database>();
  N2J_CHECK(db->CreateTable("T", Type::Tuple({{"a", Type::Int()}})).ok());
  for (int i = 1; i <= 12; ++i) {
    N2J_CHECK(db->Insert("T", Value::Tuple({Field("a", Value::Int(i))})).ok());
  }
  return db;
}

const char* const kDivTrapQueries[] = {
    // Error in the output.
    "select 10 / (t.a - 5) from t in T",
    // Error in the range predicate.
    "select t.a from t in T where 10 / (t.a - 5) > 0",
};

TEST(Vectorized, EngagesOnPaperShapesAndMatchesScalar) {
  // The paper's shapes lower to flat nodes over structural ranges (not
  // a row-wise scalar root), match the nested interpreter, and leave
  // the two always-zero vec_* counters at 0.
  std::unique_ptr<Database> db = SmallSupplierDb();
  const char* queries[] = {
      "select (sname = s.sname, ps = select z.pid from z in s.parts) "
      "from s in SUPPLIER",
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price",
      "select z from s in SUPPLIER, z in s.parts",
      "select p.pname from p in PART where p.color = \"red\"",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    ExprPtr e = TranslateOrDie(*db, q);
    shred::ShredPlan plan = shred::ShredQuery(e);
    EXPECT_FALSE(plan.scalar_root) << plan.Describe();
    EXPECT_FALSE(plan.nodes.empty());
    EXPECT_GT(plan.structural_ranges, 0) << plan.Describe();

    Result<Value> reference = Interp(*db, e);
    ASSERT_TRUE(reference.ok());
    EvalStats stats;
    Result<Value> v = shred::EvalWithBackend(*db, e, ShredOpts(), &stats);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*reference, *v);
    EXPECT_EQ(stats.vec_pipelines, 0u);
    EXPECT_EQ(stats.vec_fallbacks, 0u);
  }
}

TEST(Vectorized, BatchBoundarySizesAgreeBitForBit) {
  // PickMorselSize aims at 8 morsels per worker, one row each below
  // that: extents just below, at and above 16, 32 and 64 rows cross
  // the morsel-count boundaries of 2 and 4 workers. Every size must
  // match the interpreter, and every thread count the serial counters.
  const char* queries[] = {
      "select t.a from t in T where t.a > 3",
      "select (x = t.a, y = u.a) from t in T, u in T where t.b = u.b",
  };
  for (int n : {0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65}) {
    Database db;
    ASSERT_TRUE(db.CreateTable("T", Type::Tuple({{"a", Type::Int()},
                                                 {"b", Type::Int()}}))
                    .ok());
    for (int i = 1; i <= n; ++i) {
      ASSERT_TRUE(db.Insert("T", Value::Tuple({Field("a", Value::Int(i)),
                                               Field("b", Value::Int(i % 7))}))
                      .ok());
    }
    for (const char* q : queries) {
      SCOPED_TRACE(std::string(q) + " n=" + std::to_string(n));
      ExprPtr e = TranslateOrDie(db, q);
      Result<Value> reference = Interp(db, e);
      ASSERT_TRUE(reference.ok());
      EvalStats s1;
      Result<Value> v1 = shred::EvalWithBackend(db, e, ShredOpts(1), &s1);
      ASSERT_TRUE(v1.ok()) << v1.status().ToString();
      EXPECT_EQ(*reference, *v1);
      for (int nt : {2, 4}) {
        EvalStats sn;
        Result<Value> vn = shred::EvalWithBackend(db, e, ShredOpts(nt), &sn);
        ASSERT_TRUE(vn.ok()) << "nt=" << nt << "\n"
                             << vn.status().ToString();
        EXPECT_EQ(*reference, *vn) << "nt=" << nt;
        EXPECT_EQ(s1.Compact(), sn.Compact()) << "nt=" << nt;
      }
    }
  }
}

TEST(Vectorized, EmptyExtentAndFullyFilteredBatches) {
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(db->CreateTable("E", Type::Tuple({{"a", Type::Int()}})).ok());
  ExprPtr over_empty = TranslateOrDie(*db, "select x.a from x in E");
  EvalStats stats;
  Result<Value> v = shred::EvalWithBackend(*db, over_empty, ShredOpts(),
                                           &stats);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, Value::EmptySet());

  std::unique_ptr<Database> sp = SmallSupplierDb();
  ExprPtr filtered = TranslateOrDie(
      *sp, "select p.pname from p in PART where p.price > 999999");
  for (int nt : {1, 4}) {
    EvalStats fs;
    Result<Value> fv =
        shred::EvalWithBackend(*sp, filtered, ShredOpts(nt), &fs);
    ASSERT_TRUE(fv.ok()) << fv.status().ToString();
    EXPECT_EQ(*fv, Value::EmptySet()) << "nt=" << nt;
    EXPECT_EQ(fs.predicate_evals, sp->FindTable("PART")->size())
        << "nt=" << nt;
  }
}

TEST(Vectorized, ErrorParityAcrossBatchBoundaries) {
  // Serial: the row loop stops at the fifth row with the interpreter's
  // error, whether the division sits in the output or the predicate.
  std::unique_ptr<Database> db = DivTrapDb();
  for (const char* q : kDivTrapQueries) {
    ExprPtr e = TranslateOrDie(*db, q);
    Result<Value> reference = Interp(*db, e);
    ASSERT_FALSE(reference.ok()) << q;
    EvalStats stats;
    Result<Value> v = shred::EvalWithBackend(*db, e, ShredOpts(1), &stats);
    ASSERT_FALSE(v.ok()) << q;
    EXPECT_EQ(v.status().ToString(), reference.status().ToString()) << q;
  }
}

TEST(Vectorized, ShortCircuitSkipsErroringLanes) {
  // The And chain skips the a = 5 row before the division runs.
  std::unique_ptr<Database> db = DivTrapDb();
  ExprPtr e = TranslateOrDie(
      *db, "select t.a from t in T where t.a <> 5 and 10 / (t.a - 5) > 0");
  Result<Value> reference = Interp(*db, e);
  ASSERT_TRUE(reference.ok());
  for (int nt : {1, 4}) {
    EvalStats stats;
    Result<Value> v = shred::EvalWithBackend(*db, e, ShredOpts(nt), &stats);
    ASSERT_TRUE(v.ok()) << "nt=" << nt << "\n" << v.status().ToString();
    EXPECT_EQ(*reference, *v) << "nt=" << nt;
  }
}

TEST(Vectorized, BatchHashJoinAgreesAndSortMergeStaysScalar) {
  // A range whose predicate is an equi-join builds one table over the
  // extent (one insert per element, peak = distinct keys) and probes it
  // once per work row; hash and sort-merge agree with the interpreter.
  std::unique_ptr<Database> db = SmallSupplierDb();
  ExprPtr e = TranslateOrDie(
      *db,
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price and x.pid <> y.pid");
  Result<Value> reference = Interp(*db, e);
  ASSERT_TRUE(reference.ok());
  const Table& part = *db->FindTable("PART");
  std::vector<Value> prices;
  for (const Value& row : part.rows()) prices.push_back(*row.FindField("price"));
  const size_t distinct_prices = Value::Set(std::move(prices)).set_size();

  for (JoinAlgorithm alg : {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
    const bool hash = alg == JoinAlgorithm::kHash;
    SCOPED_TRACE(hash ? "hash" : "sort-merge");
    TraceCollector tc;
    EvalOptions opts = ShredOpts();
    opts.join_algorithm = alg;
    opts.trace = &tc;
    EvalStats stats;
    Result<Value> v = shred::EvalWithBackend(*db, e, opts, &stats);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*reference, *v);
    EXPECT_EQ(stats.joins_hash, hash ? 1u : 0u);
    EXPECT_EQ(stats.joins_sortmerge, hash ? 0u : 1u);
    EXPECT_EQ(stats.hash_inserts, part.size());
    EXPECT_EQ(stats.hash_probes, part.size());
    uint64_t peak = 0;
    for (const TraceSpan& s : tc.spans()) {
      peak = std::max(peak, s.peak_hash_size);
    }
    EXPECT_EQ(peak, hash ? distinct_prices : part.size());
  }
}

TEST(Vectorized, SerialAndParallelStatsMatchExactly) {
  // Under every range-join algorithm the whole counter struct at
  // num_threads 4 equals the serial one.
  std::unique_ptr<Database> db = SmallSupplierDb();
  const char* queries[] = {
      "select (sname = s.sname, ps = select z.pid from z in s.parts) "
      "from s in SUPPLIER",
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price",
  };
  for (const char* q : queries) {
    ExprPtr e = TranslateOrDie(*db, q);
    for (JoinAlgorithm alg :
         {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash,
          JoinAlgorithm::kSortMerge}) {
      SCOPED_TRACE(std::string(q) + " alg=" +
                   std::to_string(static_cast<int>(alg)));
      EvalOptions serial = ShredOpts(1);
      serial.join_algorithm = alg;
      serial.use_hash_joins = alg != JoinAlgorithm::kNestedLoop;
      EvalOptions parallel = serial;
      parallel.num_threads = 4;
      EvalStats s1, s4;
      Result<Value> v1 = shred::EvalWithBackend(*db, e, serial, &s1);
      Result<Value> v4 = shred::EvalWithBackend(*db, e, parallel, &s4);
      ASSERT_TRUE(v1.ok() && v4.ok());
      EXPECT_EQ(*v1, *v4);
      EXPECT_EQ(s1.Compact(), s4.Compact());
    }
  }
}

TEST(Vectorized, MorselParallelMatrixAgreesBitForBit) {
  // 1300 parts: every shape splits into several morsels — CSR
  // flattening, a hash self-join with a residual, and a non-equi
  // nested-loop self-join.
  SupplierPartConfig sp;
  sp.seed = 11;
  sp.num_parts = 1300;
  sp.num_suppliers = 60;
  sp.parts_per_supplier = 4;
  sp.match_fraction = 0.9;
  std::unique_ptr<Database> big = MakeSupplierPartDatabase(sp);
  std::unique_ptr<Database> small = SmallSupplierDb();
  struct Case {
    const Database* db;
    const char* q;
  } cases[] = {
      {big.get(), "select z from s in SUPPLIER, z in s.parts"},
      {big.get(),
       "select (a = x.pname, b = y.pname) from x in PART, y in PART "
       "where x.price = y.price and x.price < 500"},
      {small.get(),
       "select (a = x.pname, b = y.pname) from x in PART, y in PART "
       "where x.price < y.price"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.q);
    ExprPtr e = TranslateOrDie(*c.db, c.q);
    EvalStats s1;
    Result<Value> v1 = shred::EvalWithBackend(*c.db, e, ShredOpts(1), &s1);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    for (int nt : {2, 4}) {
      EvalStats sn;
      Result<Value> vn =
          shred::EvalWithBackend(*c.db, e, ShredOpts(nt), &sn);
      ASSERT_TRUE(vn.ok()) << "nt=" << nt << "\n" << vn.status().ToString();
      EXPECT_EQ(*v1, *vn) << "nt=" << nt;
      EXPECT_EQ(s1.Compact(), sn.Compact()) << "nt=" << nt;
    }
  }
}

TEST(Vectorized, ParallelFirstErrorParityAcrossMorselBoundaries) {
  // Under morsel parallelism a later morsel may finish first; the
  // surfaced error must still be the row-order first one (the
  // interpreter's). Error-path *stats* are deliberately not compared
  // across thread counts: workers complete their in-flight morsels, so
  // the merged counters can exceed the serial engine's
  // stop-at-first-error partials.
  std::unique_ptr<Database> db = DivTrapDb();
  for (const char* q : kDivTrapQueries) {
    ExprPtr e = TranslateOrDie(*db, q);
    Result<Value> reference = Interp(*db, e);
    ASSERT_FALSE(reference.ok()) << q;
    for (int nt : {2, 4}) {
      EvalStats stats;
      Result<Value> v = shred::EvalWithBackend(*db, e, ShredOpts(nt), &stats);
      ASSERT_FALSE(v.ok()) << q << " nt=" << nt;
      EXPECT_EQ(v.status().ToString(), reference.status().ToString())
          << q << " nt=" << nt;
    }
  }
}

TEST(Vectorized, CountersSurfaceInStatsText) {
  // vec_pipelines and vec_fallbacks stay in the counter table, which
  // is what the traced perfbench run serializes; vec_batches is gone.
  size_t nfields = 0;
  const EvalStatsField* fields = EvalStatsFields(&nfields);
  std::vector<std::string> names;
  for (size_t i = 0; i < nfields; ++i) names.push_back(fields[i].name);
  EXPECT_NE(std::find(names.begin(), names.end(), "vec_pipelines"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "vec_fallbacks"),
            names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "vec_batches"),
            names.end());

  std::unique_ptr<Database> db = SmallSupplierDb();
  ExprPtr e = TranslateOrDie(*db, "select p.pname from p in PART");
  EvalStats stats;
  ASSERT_TRUE(shred::EvalWithBackend(*db, e, ShredOpts(), &stats).ok());
  EXPECT_EQ(stats.vec_pipelines, 0u);
  EXPECT_EQ(stats.vec_fallbacks, 0u);
  EXPECT_EQ(stats.ToString().find("vec_"), std::string::npos);

  // Like every counter, a nonzero value prints in both text forms.
  stats.vec_pipelines = 1;
  stats.vec_fallbacks = 2;
  EXPECT_NE(stats.ToString().find("vec_pipelines"), std::string::npos);
  EXPECT_NE(stats.ToString().find("vec_fallbacks"), std::string::npos);
  EXPECT_NE(stats.Compact().find("v_pipe=1"), std::string::npos);
  EXPECT_NE(stats.Compact().find("v_fall=2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Observability: span-sum invariant and EXPLAIN integration
// ---------------------------------------------------------------------

TEST(ShredBackend, SpanSumInvariantAcrossDagNodes) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  ExprPtr e = TranslateOrDie(
      *db,
      "select (sname = s.sname, ps = select p.pid from p in s.parts) "
      "from s in SUPPLIER");
  TraceCollector tc;
  EvalOptions opts;
  opts.trace = &tc;
  EvalStats stats;
  Result<Value> v = shred::EvalShredded(*db, e, opts, &stats);
  ASSERT_TRUE(v.ok()) << v.status().ToString();

  // Per-DAG-node spans exist...
  bool saw_root = false, saw_node = false;
  for (const TraceSpan& s : tc.spans()) {
    if (s.op == "shredded") saw_root = true;
    if (s.op == "shred-node") saw_node = true;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_node);
  // ...and their exclusive stat deltas sum exactly to the globals.
  EXPECT_EQ(tc.SumExclusiveStats().Compact(), stats.Compact());
}

TEST(ShredBackend, SpanSumInvariantHoldsUnderMorselParallelism) {
  // Worker counters merge into the delegate's stats before each node
  // span closes, so exclusive deltas still telescope to the globals at
  // num_threads=4.
  std::unique_ptr<Database> db = SmallSupplierDb();
  const char* queries[] = {
      "select (sname = s.sname, ps = select p.pid from p in s.parts) "
      "from s in SUPPLIER",
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    ExprPtr e = TranslateOrDie(*db, q);
    TraceCollector tc;
    EvalOptions opts;
    opts.trace = &tc;
    opts.num_threads = 4;
    EvalStats stats;
    Result<Value> v = shred::EvalShredded(*db, e, opts, &stats);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(tc.SumExclusiveStats().Compact(), stats.Compact());
  }
}

TEST(ShredBackend, ExplainShowsShreddedPlan) {
  std::unique_ptr<Database> db = SmallSupplierDb();
  QueryEngine engine(db.get());
  engine.eval_options().backend = Backend::kShredded;
  Result<QueryReport> r = engine.Run(
      "select (sname = s.sname, ps = select p.pid from p in s.parts) "
      "from s in SUPPLIER");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string explain = r->Explain();
  EXPECT_NE(explain.find("backend:    shredded"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("shredded plan:"), std::string::npos) << explain;
  EXPECT_NE(explain.find("node0"), std::string::npos) << explain;

  // The engine-level result equals the default backend's.
  QueryEngine nested(db.get());
  Result<QueryReport> n = nested.Run(
      "select (sname = s.sname, ps = select p.pid from p in s.parts) "
      "from s in SUPPLIER");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->result, r->result);
}

}  // namespace
}  // namespace n2j
