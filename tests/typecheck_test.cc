#include "adl/typecheck.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace n2j {
namespace {

class TypecheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::SmallSupplierDb();
    ASSERT_TRUE(AddRandomXY(db_.get(), XYConfig()).ok());
    checker_ = std::make_unique<TypeChecker>(db_->schema(), db_.get());
  }

  TypePtr Infer(const ExprPtr& e) {
    Result<TypePtr> r = checker_->Infer(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) std::abort();
    return *r;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TypeChecker> checker_;
};

TEST_F(TypecheckTest, TableTypes) {
  TypePtr part = Infer(Expr::Table("PART"));
  ASSERT_TRUE(part->is_set());
  EXPECT_TRUE(part->element()->FindField("price")->is_int());
  TypePtr x = Infer(Expr::Table("X"));
  EXPECT_TRUE(x->element()->FindField("c")->is_set());
  EXPECT_FALSE(checker_->Infer(Expr::Table("NOPE")).ok());
}

TEST_F(TypecheckTest, IteratorsBindElementTypes) {
  // α[p : p.price](PART) : { int }
  TypePtr t = Infer(Expr::Map("p", Expr::Access(Expr::Var("p"), "price"),
                              Expr::Table("PART")));
  EXPECT_TRUE(t->is_set());
  EXPECT_TRUE(t->element()->is_int());
  // σ preserves the input type.
  TypePtr s = Infer(Expr::Select(
      "p", Expr::Eq(Expr::Access(Expr::Var("p"), "color"),
                    Expr::Const(Value::String("red"))),
      Expr::Table("PART")));
  EXPECT_TRUE(s->Equals(*Infer(Expr::Table("PART"))));
}

TEST_F(TypecheckTest, JoinTypesConcatFields) {
  ExprPtr join = Expr::Join(
      Expr::Table("X"), Expr::Table("Y2"), "x", "y",
      Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
               Expr::Access(Expr::Var("y"), "b")));
  // X and Y share field 'a' → concat conflict must be a type error.
  ASSERT_TRUE(db_->CreateTable("Y2", Type::Tuple({{"b", Type::Int()}})).ok());
  Result<TypePtr> conflict = checker_->Infer(Expr::Join(
      Expr::Table("X"), Expr::Table("Y"), "x", "y", Expr::True()));
  EXPECT_FALSE(conflict.ok());
  TypePtr ok = Infer(join);
  EXPECT_NE(ok->element()->FindField("b"), nullptr);
  EXPECT_NE(ok->element()->FindField("c"), nullptr);
}

TEST_F(TypecheckTest, SemiAntiJoinPreserveLeftType) {
  ExprPtr semi = Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x",
                                "y", Expr::True());
  EXPECT_TRUE(Infer(semi)->Equals(*Infer(Expr::Table("X"))));
  ExprPtr anti = Expr::AntiJoin(Expr::Table("X"), Expr::Table("Y"), "x",
                                "y", Expr::True());
  EXPECT_TRUE(Infer(anti)->Equals(*Infer(Expr::Table("X"))));
}

TEST_F(TypecheckTest, NestJoinAddsSetAttribute) {
  ExprPtr nj = Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              Expr::True(), "ys");
  TypePtr t = Infer(nj);
  TypePtr ys = t->element()->FindField("ys");
  ASSERT_NE(ys, nullptr);
  ASSERT_TRUE(ys->is_set());
  EXPECT_NE(ys->element()->FindField("e"), nullptr);
  // Inner function changes the collected type.
  ExprPtr nj2 = Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                               Expr::True(), "es",
                               Expr::Access(Expr::Var("y"), "e"));
  EXPECT_TRUE(
      Infer(nj2)->element()->FindField("es")->element()->is_int());
}

TEST_F(TypecheckTest, NestAndUnnestTypes) {
  ExprPtr nest = Expr::Nest(Expr::Table("Y"), {"e"}, "es");
  TypePtr t = Infer(nest);
  EXPECT_NE(t->element()->FindField("a"), nullptr);
  EXPECT_TRUE(t->element()->FindField("es")->is_set());
  ExprPtr unnest = Expr::Unnest(Expr::Table("X"), "c");
  TypePtr u = Infer(unnest);
  EXPECT_NE(u->element()->FindField("d"), nullptr);
  EXPECT_NE(u->element()->FindField("a"), nullptr);
  EXPECT_EQ(u->element()->FindField("c"), nullptr);
}

TEST_F(TypecheckTest, SchemaOfComputesSch) {
  TypeEnv env;
  Result<std::vector<std::string>> sch =
      checker_->SchemaOf(Expr::Table("PART"), env);
  ASSERT_TRUE(sch.ok());
  EXPECT_EQ(*sch, (std::vector<std::string>{"pid", "pname", "price",
                                            "color"}));
  EXPECT_FALSE(
      checker_->SchemaOf(Expr::Const(Value::Int(3)), env).ok());
}

TEST_F(TypecheckTest, DerefAndRefAccess) {
  // Accessing sname through a Ref(Supplier) attribute.
  ExprPtr e = Expr::Map(
      "d",
      Expr::Access(Expr::Access(Expr::Var("d"), "supplier"), "sname"),
      Expr::Table("DELIVERY"));
  TypePtr t = Infer(e);
  EXPECT_TRUE(t->element()->is_string());
  // Explicit deref node.
  TypePtr obj = Infer(Expr::Deref(
      Expr::Const(Value::MakeOidValue(MakeOid(1, 0))), "Part"));
  EXPECT_TRUE(obj->is_tuple());
}

TEST_F(TypecheckTest, QuantifierAndAggregateTypes) {
  ExprPtr q = Expr::Quant(
      QuantKind::kExists, "p", Expr::Table("PART"),
      Expr::Eq(Expr::Access(Expr::Var("p"), "color"),
               Expr::Const(Value::String("red"))));
  EXPECT_TRUE(Infer(q)->is_bool());
  EXPECT_TRUE(
      Infer(Expr::Agg(AggKind::kCount, Expr::Table("PART")))->is_int());
  EXPECT_TRUE(Infer(Expr::Agg(
                  AggKind::kAvg,
                  Expr::Map("p", Expr::Access(Expr::Var("p"), "price"),
                            Expr::Table("PART"))))
                  ->is_double());
}

TEST_F(TypecheckTest, TypeErrorsAreReported) {
  // Arithmetic on strings.
  EXPECT_FALSE(checker_
                   ->Infer(Expr::Bin(BinOp::kAdd,
                                     Expr::Const(Value::String("a")),
                                     Expr::Const(Value::Int(1))))
                   .ok());
  // Flatten of a non-nested set.
  EXPECT_FALSE(checker_->Infer(Expr::Flatten(Expr::Table("PART"))).ok());
  // Unnest of an atomic attribute.
  EXPECT_FALSE(
      checker_->Infer(Expr::Unnest(Expr::Table("PART"), "price")).ok());
  // Unbound variable.
  EXPECT_FALSE(checker_->Infer(Expr::Var("nope")).ok());
}

TEST_F(TypecheckTest, TypeOfValueDerivation) {
  EXPECT_TRUE(TypeOfValue(Value::Int(1))->is_int());
  EXPECT_TRUE(TypeOfValue(Value::EmptySet())->is_set());
  EXPECT_TRUE(TypeOfValue(Value::EmptySet())->element()->is_any());
  Value t = Value::Tuple({Field("a", Value::Int(1))});
  EXPECT_TRUE(TypeOfValue(t)->is_tuple());
  EXPECT_TRUE(TypeOfValue(Value::Set({t}))->element()->is_tuple());
}

// The shapes of TranslateTest.VerdictAndTypeTable, built as the ADL the
// translator lowers them to. A null type means Infer must fail with a
// TypeError.
TEST_F(TypecheckTest, VerdictAndTypeTable) {
  auto var = [](const char* n) { return Expr::Var(n); };
  auto access = [](ExprPtr e, const char* f) { return Expr::Access(e, f); };
  auto integer = [](int64_t i) { return Expr::Const(Value::Int(i)); };
  ExprPtr empty = Expr::SetConstruct({});
  struct Row {
    const char* shape;
    ExprPtr expr;
    const char* type;
  };
  const Row kRows[] = {
      {"x + y over {} x {}",
       Expr::Flatten(Expr::Map(
           "x",
           Expr::Map("y", Expr::Bin(BinOp::kAdd, var("x"), var("y")), empty),
           empty)),
       "{ int }"},
      {"x.a over {}", Expr::Map("x", access(var("x"), "a"), empty),
       "{ any }"},
      {"exists over an element of {}",
       Expr::Map("x", var("x"),
                 Expr::Select("x",
                              Expr::Quant(QuantKind::kExists, "y", var("x"),
                                          Expr::True()),
                              empty)),
       "{ any }"},
      {"{ Ref(Part) } subseteq { int }",
       Expr::Map("s", access(var("s"), "sname"),
                 Expr::Select("s",
                              Expr::Bin(BinOp::kSubsetEq,
                                        access(var("s"), "parts"),
                                        Expr::SetConstruct(
                                            {integer(1), integer(2)})),
                              Expr::Table("SUPPLIER"))),
       nullptr},
      {"avg over strings",
       Expr::Map("s",
                 Expr::Agg(AggKind::kAvg,
                           Expr::Map("p", access(var("p"), "pname"),
                                     Expr::Table("PART"))),
                 Expr::Table("SUPPLIER")),
       nullptr},
      {"repeated tuple field",
       Expr::Map("p",
                 Expr::TupleConstruct({"a", "a"}, {integer(1), integer(2)}),
                 Expr::Table("PART")),
       nullptr},
      // A join's predicate must be boolean, as a selection's must.
      {"join on an int predicate",
       Expr::Join(Expr::Table("SUPPLIER"), Expr::Table("PART"), "x", "y",
                  integer(1)),
       nullptr},
      {"semijoin on an int predicate",
       Expr::SemiJoin(Expr::Table("SUPPLIER"), Expr::Table("PART"), "x", "y",
                      integer(1)),
       nullptr},
      {"antijoin on an int predicate",
       Expr::AntiJoin(Expr::Table("SUPPLIER"), Expr::Table("PART"), "x", "y",
                      integer(1)),
       nullptr},
      {"nestjoin on an int predicate",
       Expr::NestJoin(Expr::Table("SUPPLIER"), Expr::Table("PART"), "x", "y",
                      integer(1), "ps", var("y")),
       nullptr},
      {"semijoin on an unknown-typed predicate",
       Expr::SemiJoin(empty, Expr::Table("PART"), "x", "y",
                      access(var("x"), "a")),
       "{ any }"},
  };
  for (const Row& row : kRows) {
    Result<TypePtr> r = checker_->Infer(row.expr);
    if (row.type == nullptr) {
      ASSERT_FALSE(r.ok()) << row.shape << " typed as " << (*r)->ToString();
      EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << row.shape;
      if (std::string(row.shape).ends_with("an int predicate")) {
        EXPECT_EQ(r.status().message(),
                  "join predicate must be boolean, got int")
            << row.shape;
      }
    } else {
      ASSERT_TRUE(r.ok()) << row.shape << "\n" << r.status().ToString();
      EXPECT_EQ((*r)->ToString(), row.type) << row.shape;
    }
  }
}

// The translator's type of a query Equals the checker's Infer of the ADL
// it lowers to: the paper's example queries on the supplier-part
// database, and every fuzzer corpus query on its recorded tables.
TEST_F(TypecheckTest, TranslatedQueriesTypecheckConsistently) {
  auto check = [](const Database& db, const std::string& q) {
    Translator tr(db.schema(), &db);
    Result<TypedExpr> typed = tr.TranslateString(q);
    ASSERT_TRUE(typed.ok()) << q << "\n" << typed.status().ToString();
    TypeChecker checker(db.schema(), &db);
    Result<TypePtr> inferred = checker.Infer(typed->expr);
    ASSERT_TRUE(inferred.ok()) << q << "\n" << inferred.status().ToString();
    EXPECT_TRUE(typed->type->Equals(**inferred))
        << q << "\ntranslator: " << typed->type->ToString()
        << "\nchecker:    " << (*inferred)->ToString();
  };
  for (const char* q : {
           // Q1
           "select (sname = s.sname, pnames = select p.pname from p in PART "
           "where p[pid] in s.parts and p.color = \"red\") from s in SUPPLIER",
           // Q2
           "select d from d in (select e from e in DELIVERY "
           "where e.supplier.sname = \"s1\") where d.date > 940600",
           // Q3.1
           "select s.sname from s in SUPPLIER where s.parts supseteq "
           "(select x from t in SUPPLIER, x in t.parts "
           "where t.sname = \"s1\")",
           // Q3.2
           "select d from d in DELIVERY where "
           "exists x in d.supply : x.part.color = \"red\"",
           // Q4
           "select s.eid from s in SUPPLIER where "
           "exists z in s.parts : not exists p in PART : z.pid = p.pid",
           // Q5
           "select s.sname from s in SUPPLIER where "
           "exists x in s.parts : exists p in PART : "
           "x.pid = p.pid and p.color = \"red\"",
           // Q6
           "select (sname = s.sname, partssuppl = select p from p in PART "
           "where p[pid] in s.parts) from s in SUPPLIER",
       }) {
    check(*db_, q);
  }
  std::vector<testutil::CorpusCase> corpus = testutil::LoadCorpus();
  EXPECT_GE(corpus.size(), 7u);
  for (const testutil::CorpusCase& c : corpus) {
    FuzzTablesConfig config;
    config.seed = c.tables_seed;
    Database db;
    ASSERT_TRUE(AddRandomFuzzTables(&db, config).ok()) << c.file;
    SCOPED_TRACE(c.file);
    check(db, c.query);
  }
}

}  // namespace
}  // namespace n2j
