// Tests for the bytecode compiler and VM (exec/bytecode.h,
// exec/compile.h): coverage of every ExprKind (lower fully or be refused
// cleanly, never mis-evaluate), golden disassembly for the paper's
// Figure-1 lambdas, frame reuse across tuples and worker threads, error
// parity with the tree interpreter, and the per-lambda engine choice.

#include "exec/compile.h"

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "exec/bytecode.h"
#include "exec/equi_join.h"
#include "shred/shred.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::EvalExpr;

class BytecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeFigure2Database();  // X(a, c:{(d)}), Y(a, e)
  }

  /// The first row of table X, whose shape seeds a lambda's caches.
  Value FirstX() const {
    return EvalExpr(*db_, Expr::Table("X")).elements()[0];
  }

  /// Binds `body` as a one-parameter lambda over `var` against an empty
  /// environment and runs it once on `arg`, which chooses its engine.
  /// Returns the lambda's result.
  Result<Value> RunOnce(const ExprPtr& body, const std::string& var,
                        const Value& arg, bool* compiled, bool* refused) {
    Environment env;
    Evaluator ev(*db_);
    Lambda lambda(ev, env, *body, var);
    Value* r = lambda.Run(arg);
    *compiled = lambda.compiled();
    *refused = lambda.refused();
    if (r == nullptr) return lambda.status();
    return *r;
  }

  /// Evaluates α[x : body](X) compiled and interpreted; expects equal
  /// values and returns the (shared) result.
  Value MapBothEngines(const ExprPtr& body) {
    ExprPtr e = Expr::Map("x", body, Expr::Table("X"));
    EvalOptions interp;
    interp.compiled = false;
    Value want = EvalExpr(*db_, e, interp);
    Value got = EvalExpr(*db_, e);  // compiled on by default
    EXPECT_EQ(want, got) << AlgebraStr(e);
    return got;
  }

  std::unique_ptr<Database> db_;
};

// ---- Coverage: every ExprKind either lowers or cleanly falls back ----

TEST_F(BytecodeTest, ScalarKindsLower) {
  ExprPtr xa = Expr::Access(Expr::Var("x"), "a");
  struct Case {
    const char* label;
    ExprPtr body;
  };
  const Case lowerable[] = {
      {"const", Expr::Const(Value::Int(7))},
      {"var", Expr::Var("x")},
      {"table", Expr::Table("Y")},
      {"let", Expr::Let("v", xa, Expr::Bin(BinOp::kAdd, Expr::Var("v"),
                                           Expr::Var("v")))},
      {"field", xa},
      {"tuple-project", Expr::TupleProject(Expr::Var("x"), {"a"})},
      {"tuple-construct", Expr::TupleConstruct({"k"}, {xa})},
      {"tuple-concat",
       Expr::TupleConcat(Expr::TupleConstruct({"p"}, {xa}),
                         Expr::TupleConstruct({"q"}, {xa}))},
      {"except", Expr::ExceptOp(Expr::Var("x"), {"a"},
                                {Expr::Const(Value::Int(0))})},
      {"set-construct", Expr::SetConstruct({xa, Expr::Const(Value::Int(1))})},
      {"unary", Expr::Un(UnOp::kNeg, xa)},
      {"binary", Expr::Bin(BinOp::kMul, xa, xa)},
      {"and-or", Expr::Or(Expr::Eq(xa, Expr::Const(Value::Int(1))),
                          Expr::Not(Expr::Eq(xa, xa)))},
      {"quantifier",
       Expr::Quant(QuantKind::kExists, "y", Expr::Table("Y"),
                   Expr::Eq(Expr::Access(Expr::Var("y"), "a"), xa))},
      {"aggregate", Expr::Agg(AggKind::kCount,
                              Expr::Access(Expr::Var("x"), "c"))},
      {"union", Expr::Union(Expr::Access(Expr::Var("x"), "c"),
                            Expr::Access(Expr::Var("x"), "c"))},
      {"intersect", Expr::Intersect(Expr::Access(Expr::Var("x"), "c"),
                                    Expr::Access(Expr::Var("x"), "c"))},
      {"difference", Expr::Difference(Expr::Access(Expr::Var("x"), "c"),
                                      Expr::Access(Expr::Var("x"), "c"))},
  };
  for (const Case& c : lowerable) {
    bool compiled = false;
    bool refused = true;
    EXPECT_TRUE(RunOnce(c.body, "x", FirstX(), &compiled, &refused).ok())
        << c.label;
    EXPECT_TRUE(compiled) << c.label;
    EXPECT_FALSE(refused) << c.label;
    MapBothEngines(c.body);
  }
}

TEST_F(BytecodeTest, IteratorKindsFallBack) {
  ExprPtr y = Expr::Table("Y");
  ExprPtr x_c = Expr::Access(Expr::Var("x"), "c");
  // A one-tuple set with fields disjoint from Y's, so product/join
  // concatenation cannot hit an attribute-name conflict.
  ExprPtr p1 = Expr::SetConstruct(
      {Expr::TupleConstruct({"p"}, {Expr::Const(Value::Int(1))})});
  struct Case {
    const char* label;
    ExprPtr body;
  };
  const Case fallbacks[] = {
      {"map", Expr::Map("y", Expr::Access(Expr::Var("y"), "a"), y)},
      {"select", Expr::Select("y", Expr::True(), y)},
      {"project", Expr::Project(y, {"a"})},
      {"flatten", Expr::Flatten(Expr::SetConstruct({x_c}))},
      {"nest", Expr::Nest(y, {"e"}, "es")},
      {"unnest", Expr::Unnest(Expr::Table("X"), "c")},
      {"product", Expr::Product(p1, y)},
      {"join", Expr::Join(p1, y, "u", "v", Expr::True())},
      {"semijoin", Expr::SemiJoin(y, y, "u", "v", Expr::True())},
      {"antijoin", Expr::AntiJoin(y, y, "u", "v", Expr::True())},
      {"nestjoin", Expr::NestJoin(y, y, "u", "v", Expr::True(), "g",
                                  Expr::Var("v"))},
      {"divide", Expr::Divide(y, Expr::Project(y, {"e"}))},
  };
  for (const Case& c : fallbacks) {
    bool compiled = true;
    bool refused = false;
    EXPECT_TRUE(RunOnce(c.body, "x", FirstX(), &compiled, &refused).ok())
        << c.label;
    EXPECT_FALSE(compiled) << c.label;
    EXPECT_TRUE(refused) << c.label;
    // A refused lambda must still produce the interpreter's result when
    // the body sits inside a map.
    MapBothEngines(c.body);
  }
}

TEST_F(BytecodeTest, UnboundVariableFallsBack) {
  bool compiled = true;
  bool refused = false;
  Result<Value> r =
      RunOnce(Expr::Var("nope"), "x", FirstX(), &compiled, &refused);
  EXPECT_TRUE(refused);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "unbound variable: nope");
}

TEST_F(BytecodeTest, UnknownTableFallsBack) {
  bool compiled = true;
  bool refused = false;
  Result<Value> r =
      RunOnce(Expr::Table("NOPE"), "x", FirstX(), &compiled, &refused);
  EXPECT_TRUE(refused);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "no such table: NOPE");
}

TEST_F(BytecodeTest, FreeVariablesAreCapturedByValue) {
  Environment env;
  env.Push("k", Value::Int(10));
  Evaluator ev(*db_);
  ExprPtr body = Expr::Bin(BinOp::kAdd, Expr::Var("x"), Expr::Var("k"));
  std::string x = "x";
  Lambda lambda(ev, env, *body, x);
  Value* r = lambda.Run(Value::Int(5));
  ASSERT_TRUE(lambda.compiled());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(*r, Value::Int(15));
}

TEST_F(BytecodeTest, DerefLowersAndMatchesInterpreter) {
  auto sp = testutil::SmallSupplierDb();
  // α[d : deref(d.supplier).sname](DELIVERY) — an oid hop per tuple.
  ExprPtr body = Expr::Access(
      Expr::Deref(Expr::Access(Expr::Var("d"), "supplier"), "Supplier"),
      "sname");
  ExprPtr e = Expr::Map("d", body, Expr::Table("DELIVERY"));
  EvalOptions interp;
  interp.compiled = false;
  EXPECT_EQ(EvalExpr(*sp, e, interp), EvalExpr(*sp, e));
}

// ---- deref(e).a as one instruction ----------------------------------

TEST_F(BytecodeTest, GoldenDisassemblyDerefField) {
  // deref(d.supplier).sname, a path step through a reference, is one
  // dfield instruction; the deref's result shape is never static, so
  // its cache starts cold, and the first Run fills it (@1). The
  // disassembly is read after that Run, which compiled the body.
  auto sp = testutil::SmallSupplierDb();
  ExprPtr body = Expr::Access(
      Expr::Deref(Expr::Access(Expr::Var("d"), "supplier"), "Supplier"),
      "sname");
  Environment env;
  Evaluator ev(*sp);
  const Value d0 = EvalExpr(*sp, Expr::Table("DELIVERY")).elements()[0];
  const TupleShape* ds = d0.tuple_shape();
  std::string d = "d";
  Lambda lambda(ev, env, *body, d);
  ASSERT_NE(lambda.Run(d0), nullptr);
  ASSERT_TRUE(lambda.compiled());
  EXPECT_EQ(lambda.program()->Disassemble(),
            StrFormat("program regs=3 params=1\n"
                      "  0: field   r1 <- r0 .supplier@%d\n"
                      "  1: dfield  r2 <- *r1 .sname@%d\n"
                      "ret r2\n",
                      ds->IndexOf("supplier"),
                      sp->FindObject(d0.FindField("supplier")->oid_value())
                          ->tuple_shape()
                          ->IndexOf("sname")));
}

TEST_F(BytecodeTest, DerefFieldErrorsMatchInterpreter) {
  auto sp = testutil::SmallSupplierDb();
  // Objects the schema never makes, stored under an unused class id: a
  // non-tuple, and an oid-valued object that a field access follows.
  const uint16_t kOdd = 77;
  ASSERT_TRUE(sp->store().Put(MakeOid(kOdd, 0), Value::Int(5)).ok());
  ASSERT_TRUE(sp->store()
                  .Put(MakeOid(kOdd, 1),
                       Value::MakeOidValue(MakeOid(kOdd, 0)))
                  .ok());
  auto deref_field = [](ExprPtr ref, const char* name) {
    return Expr::Access(Expr::Deref(std::move(ref), "Supplier"), name);
  };
  auto oid = [](uint16_t cls, uint64_t seq) {
    return Expr::Const(Value::MakeOidValue(MakeOid(cls, seq)));
  };
  struct Case {
    const char* label;
    ExprPtr body;
    const char* message;
  };
  const Case cases[] = {
      {"non-oid", deref_field(Expr::Access(Expr::Var("d"), "date"), "sname"),
       "deref on non-oid value"},
      {"dangling seq", deref_field(oid(2, 999999), "sname"),
       "dangling oid @2.999999"},
      {"dangling class", deref_field(oid(900, 3), "sname"),
       "dangling oid @900.3"},
      {"non-tuple", deref_field(oid(kOdd, 0), "sname"),
       "field access 'sname' on non-tuple value"},
      {"oid object", deref_field(oid(kOdd, 1), "sname"),
       "field access 'sname' on non-tuple value"},
      {"missing field",
       deref_field(Expr::Access(Expr::Var("d"), "supplier"), "zzz"),
       "no field 'zzz' in"},
  };
  for (const Case& c : cases) {
    ExprPtr e = Expr::Map("d", c.body, Expr::Table("DELIVERY"));
    EvalOptions interp;
    interp.compiled = false;
    Evaluator iev(*sp, interp);
    Result<Value> ir = iev.Eval(e);
    Evaluator cev(*sp);
    Result<Value> cr = cev.Eval(e);
    ASSERT_FALSE(ir.ok()) << c.label;
    ASSERT_FALSE(cr.ok()) << c.label;
    EXPECT_EQ(ir.status().ToString(), cr.status().ToString()) << c.label;
    EXPECT_NE(cr.status().message().find(c.message), std::string::npos)
        << c.label << ": " << cr.status().ToString();
    EXPECT_EQ(iev.stats().derefs, cev.stats().derefs) << c.label;
    EXPECT_GT(cev.stats().compiled_evals, 0u) << c.label;
  }
}

TEST_F(BytecodeTest, DerefFieldRunsInBothShreddedExecutors) {
  // Q2's path step, in a map and in a select, through the shredded
  // backend's serial row loop and its morsel-parallel workers: the
  // nested backend's results and deref counts.
  auto sp = testutil::SmallSupplierDb();
  const char* queries[] = {
      "select (n = d.supplier.sname, t = d.date) from d in DELIVERY",
      "select d from d in DELIVERY where d.supplier.sname < \"s5\"",
  };
  for (const char* q : queries) {
    ExprPtr e = testutil::TranslateOrDie(*sp, q);
    EvalOptions nested;
    EvalStats ref_stats;
    Result<Value> ref = shred::EvalWithBackend(*sp, e, nested, &ref_stats);
    ASSERT_TRUE(ref.ok()) << q << "\n" << ref.status().ToString();
    EXPECT_GT(ref_stats.derefs, 0u) << q;
    for (int nt : {1, 4}) {
      EvalOptions o;
      o.backend = Backend::kShredded;
      o.num_threads = nt;
      EvalStats stats;
      Result<Value> got = shred::EvalWithBackend(*sp, e, o, &stats);
      ASSERT_TRUE(got.ok()) << q << "\n" << got.status().ToString();
      EXPECT_GT(got->set_size(), 0u) << q;
      EXPECT_EQ(*ref, *got) << q << " nt=" << nt;
      EXPECT_EQ(ref_stats.derefs, stats.derefs) << q << " nt=" << nt;
    }
  }
}

// ---- Golden disassembly for the Figure-1 lambdas --------------------

TEST_F(BytecodeTest, GoldenDisassemblyFig1EquiKeyPredicate) {
  // The Figure-1 correlation predicate x.a = y.a, compiled as the
  // residual-style two-parameter lambda. The first Run's x seeds x.a's
  // cache at compile time; y.a's starts cold and that Run fills it, so
  // both read @0 after it.
  ExprPtr pred = Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
                          Expr::Access(Expr::Var("y"), "a"));
  Environment env;
  Evaluator ev(*db_);
  std::string x = "x";
  std::string y = "y";
  Lambda lambda(ev, env, *pred, x, y);
  ASSERT_NE(lambda.Run(FirstX(),
                       EvalExpr(*db_, Expr::Table("Y")).elements()[0]),
            nullptr);
  ASSERT_TRUE(lambda.compiled());
  EXPECT_EQ(lambda.program()->Disassemble(),
            "program regs=5 params=2\n"
            "  0: field   r2 <- r0 .a@0\n"
            "  1: field   r3 <- r1 .a@0\n"
            "  2: binary  r4 <- r2 = r3\n"
            "ret r4\n");
}

TEST_F(BytecodeTest, GoldenDisassemblyFig1MapBody) {
  // The subquery's map body (d = y.e) from Figure 1.
  ExprPtr body = Expr::TupleConstruct(
      {"d"}, {Expr::Access(Expr::Var("y"), "e")});
  Environment env;
  Evaluator ev(*db_);
  std::string y = "y";
  Lambda lambda(ev, env, *body, y);
  ASSERT_NE(lambda.Run(EvalExpr(*db_, Expr::Table("Y")).elements()[0]),
            nullptr);
  ASSERT_TRUE(lambda.compiled());
  EXPECT_EQ(lambda.program()->Disassemble(),
            "program regs=3 params=1\n"
            "  0: field   r1 <- r0 .e@1\n"
            "  1: tuple   r2 <- (d = r1)\n"
            "ret r2\n");
}

TEST_F(BytecodeTest, GoldenDisassemblyShortCircuitAnd) {
  // x.a = 1 and x.a < 9 — the and-probe jumps over the rhs region.
  ExprPtr pred = Expr::And(
      Expr::Eq(Expr::Access(Expr::Var("x"), "a"), Expr::Const(Value::Int(1))),
      Expr::Bin(BinOp::kLt, Expr::Access(Expr::Var("x"), "a"),
                Expr::Const(Value::Int(9))));
  Environment env;
  Evaluator ev(*db_);
  std::string x = "x";
  Lambda lambda(ev, env, *pred, x);
  ASSERT_NE(lambda.Run(FirstX()), nullptr);
  ASSERT_TRUE(lambda.compiled());
  EXPECT_EQ(lambda.program()->Disassemble(),
            "program regs=8 params=1\n"
            "  0: field   r1 <- r0 .a@0\n"
            "  1: const   r2 <- 1\n"
            "  2: binary  r3 <- r1 = r2\n"
            "  3: and?    r4 <- r3 else jump 8\n"
            "  4: field   r5 <- r0 .a@0\n"
            "  5: const   r6 <- 9\n"
            "  6: binary  r7 <- r5 < r6\n"
            "  7: bool    r4 <- r7\n"
            "ret r4\n");
}

TEST_F(BytecodeTest, GoldenDisassemblyJoinKeyExtractor) {
  // Composite join key (x.a, x.a + 1) as built for the hash join.
  std::vector<ExprPtr> keys = {
      Expr::Access(Expr::Var("x"), "a"),
      Expr::Bin(BinOp::kAdd, Expr::Access(Expr::Var("x"), "a"),
                Expr::Const(Value::Int(1)))};
  Environment env;
  Evaluator ev(*db_);
  std::string x = "x";
  Lambda lambda = Lambda::Key(ev, env, keys, x);
  Value* key = lambda.Run(FirstX());
  ASSERT_NE(key, nullptr);
  ASSERT_TRUE(lambda.compiled());
  const Value a = *FirstX().FindField("a");
  EXPECT_EQ(*key, JoinKeyFromParts(
                      {a, Value::Int(a.int_value() + 1)}));
  EXPECT_EQ(lambda.program()->Disassemble(),
            "program regs=6 params=1\n"
            "  0: field   r1 <- r0 .a@0\n"
            "  1: field   r2 <- r0 .a@0\n"
            "  2: const   r3 <- 1\n"
            "  3: binary  r4 <- r2 + r3\n"
            "  4: key     r5 <- [r1, r4]\n"
            "ret r5\n");
}

TEST_F(BytecodeTest, FoldedKeyProjectionMatchesInterpreter) {
  // x[a, c].a — the shape of Q4's antijoin key s1[pid].pid — compiles
  // to one projection that selects field a; no projected tuple is built.
  ExprPtr body = Expr::Access(Expr::TupleProject(Expr::Var("x"), {"a", "c"}),
                              "a");
  Environment env;
  Evaluator ev(*db_);
  std::string x = "x";
  Lambda lambda(ev, env, *body, x);
  ASSERT_NE(lambda.Run(FirstX()), nullptr);
  ASSERT_TRUE(lambda.compiled());
  EXPECT_EQ(lambda.program()->Disassemble(),
            "program regs=2 params=1\n"
            "  0: projfld r1 <- r0 [a, c].a\n"
            "ret r1\n");
  EXPECT_EQ(MapBothEngines(body),
            EvalExpr(*db_, Expr::Map("x", Expr::Access(Expr::Var("x"), "a"),
                                     Expr::Table("X"))));
}

TEST_F(BytecodeTest, FoldedKeyProjectionKeepsProjectionErrors) {
  // The folded form reports the projection's own errors, exactly as the
  // interpreter evaluates x[..] before the field access.
  ExprPtr xa = Expr::Access(Expr::Var("x"), "a");
  const ExprPtr bodies[] = {
      // A projected name is missing: "no field 'zzz' in tuple".
      Expr::Access(Expr::TupleProject(Expr::Var("x"), {"a", "zzz"}), "a"),
      // The base is not a tuple: "tuple projection on non-tuple".
      Expr::Access(Expr::TupleProject(xa, {"a"}), "a"),
      // Not folded (c is not projected): the field access fails on the
      // projected tuple.
      Expr::Access(Expr::TupleProject(Expr::Var("x"), {"a"}), "c"),
  };
  for (const ExprPtr& body : bodies) {
    ExprPtr e = Expr::Map("x", body, Expr::Table("X"));
    EvalOptions interp;
    interp.compiled = false;
    Evaluator iev(*db_, interp);
    Result<Value> ir = iev.Eval(e);
    Evaluator cev(*db_);
    Result<Value> cr = cev.Eval(e);
    ASSERT_FALSE(ir.ok()) << AlgebraStr(e);
    ASSERT_FALSE(cr.ok()) << AlgebraStr(e);
    EXPECT_EQ(ir.status().ToString(), cr.status().ToString());
    EXPECT_GT(cev.stats().compiled_evals, 0u);
  }
}

// ---- Frame reuse ----------------------------------------------------

TEST_F(BytecodeTest, FrameIsReusedAcrossTuples) {
  // One program, many Run calls; the register frame must deliver fresh
  // results every time (no stale state across tuples).
  Environment env;
  Evaluator ev(*db_);
  ExprPtr body = Expr::Bin(BinOp::kMul, Expr::Var("x"), Expr::Var("x"));
  std::string x = "x";
  Lambda lambda(ev, env, *body, x);
  for (int i = 0; i < 100; ++i) {
    Value* r = lambda.Run(Value::Int(i));
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(lambda.compiled());
    EXPECT_EQ(*r, Value::Int(static_cast<int64_t>(i) * i));
  }
  EXPECT_EQ(ev.stats().compiled_evals, 100u);
}

TEST_F(BytecodeTest, WorkerFramesMatchSerialUnderParallelism) {
  // Same value and *exact* same counters under num_threads 1 and 4:
  // each worker binds its own lambda, and the per-worker counters
  // merge to the serial totals.
  auto db = std::make_unique<Database>();
  XYConfig config;
  config.seed = 11;
  config.x_rows = 64;
  config.y_rows = 48;
  ASSERT_TRUE(AddRandomXY(db.get(), config).ok());
  ExprPtr e = Expr::Select(
      "x",
      Expr::Quant(QuantKind::kExists, "y", Expr::Table("Y"),
                  Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                           Expr::Access(Expr::Var("x"), "a"))),
      Expr::Table("X"));
  EvalOptions serial_opts;
  Evaluator serial(*db, serial_opts);
  Result<Value> sv = serial.Eval(e);
  ASSERT_TRUE(sv.ok());
  EXPECT_GT(serial.stats().compiled_evals, 0u);

  EvalOptions mt_opts;
  mt_opts.num_threads = 4;
  Evaluator mt(*db, mt_opts);
  Result<Value> mv = mt.Eval(e);
  ASSERT_TRUE(mv.ok());

  EXPECT_EQ(*sv, *mv);
  EXPECT_EQ(serial.stats(), mt.stats())
      << "serial: " << serial.stats().ToString()
      << "\n4-thread: " << mt.stats().ToString();
}

// ---- Error parity ---------------------------------------------------

TEST_F(BytecodeTest, RuntimeErrorsMatchInterpreter) {
  struct Case {
    const char* label;
    ExprPtr body;
  };
  ExprPtr xa = Expr::Access(Expr::Var("x"), "a");
  const Case cases[] = {
      {"division by zero",
       Expr::Bin(BinOp::kDiv, xa, Expr::Const(Value::Int(0)))},
      {"missing field", Expr::Access(Expr::Var("x"), "zzz")},
      {"field access on non-tuple", Expr::Access(xa, "a")},
      {"arithmetic on non-numeric",
       Expr::Bin(BinOp::kAdd, xa, Expr::Const(Value::String("s")))},
      {"not on non-bool", Expr::Not(xa)},
      {"in rhs not a set", Expr::Bin(BinOp::kIn, xa, xa)},
      {"aggregate over non-set", Expr::Agg(AggKind::kSum, xa)},
      {"except on non-tuple",
       Expr::ExceptOp(xa, {"a"}, {Expr::Const(Value::Int(0))})},
  };
  for (const Case& c : cases) {
    ExprPtr e = Expr::Map("x", c.body, Expr::Table("X"));
    EvalOptions interp;
    interp.compiled = false;
    Evaluator iev(*db_, interp);
    Result<Value> ir = iev.Eval(e);
    Evaluator cev(*db_);
    Result<Value> cr = cev.Eval(e);
    ASSERT_FALSE(ir.ok()) << c.label;
    ASSERT_FALSE(cr.ok()) << c.label;
    EXPECT_EQ(ir.status().ToString(), cr.status().ToString()) << c.label;
  }
}

TEST_F(BytecodeTest, ShortCircuitMasksRhsErrorInBothEngines) {
  // false and (1/0 = 1): the rhs must never evaluate — in the VM the
  // and-probe jumps over the region, including its const loads.
  ExprPtr body = Expr::And(
      Expr::False(),
      Expr::Eq(Expr::Bin(BinOp::kDiv, Expr::Const(Value::Int(1)),
                         Expr::Const(Value::Int(0))),
               Expr::Const(Value::Int(1))));
  EXPECT_EQ(MapBothEngines(body), Value::Set({Value::Bool(false)}));
}

TEST_F(BytecodeTest, CompiledOffMeansNoCompiledEvals) {
  EvalOptions opts;
  opts.compiled = false;
  Evaluator ev(*db_, opts);
  ExprPtr e = Expr::Map("x", Expr::Access(Expr::Var("x"), "a"),
                        Expr::Table("X"));
  ASSERT_TRUE(ev.Eval(e).ok());
  EXPECT_EQ(ev.stats().compiled_evals, 0u);
  EXPECT_EQ(ev.stats().interp_fallback_evals, 0u);
}

TEST_F(BytecodeTest, FallbackEvalsAreCounted) {
  // A body containing a nested select is refused; the per-tuple
  // interpreter evaluations are surfaced in the stats.
  ExprPtr body = Expr::Agg(
      AggKind::kCount,
      Expr::Select("y",
                   Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                            Expr::Access(Expr::Var("x"), "a")),
                   Expr::Table("Y")));
  ExprPtr e = Expr::Map("x", body, Expr::Table("X"));
  Evaluator ev(*db_);
  ASSERT_TRUE(ev.Eval(e).ok());
  Value x = EvalExpr(*db_, Expr::Table("X"));
  EXPECT_EQ(ev.stats().interp_fallback_evals, x.set_size());
}

TEST_F(BytecodeTest, EachJoinLambdaChoosesItsOwnEngine) {
  // A nested-loop nestjoin whose predicate holds an iterator (refused)
  // and whose inner function is a plain tuple construction (compiled):
  // the predicate is interpreted on every pair, the inner runs as
  // bytecode on every match. The project iterator runs no lambda of its
  // own, so every compiled evaluation is the inner's.
  ExprPtr xa = Expr::Access(Expr::Var("x"), "a");
  ExprPtr ya = Expr::Access(Expr::Var("y"), "a");
  ExprPtr pred = Expr::And(
      Expr::Eq(xa, ya),
      Expr::Bin(BinOp::kGt,
                Expr::Agg(AggKind::kCount,
                          Expr::Project(Expr::Table("Y"), {"a"})),
                Expr::Const(Value::Int(0))));
  ExprPtr inner = Expr::TupleConstruct(
      {"a", "e"}, {ya, Expr::Access(Expr::Var("y"), "e")});
  ExprPtr e = Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                             pred, "g", inner);
  EvalOptions nl;
  nl.join_algorithm = JoinAlgorithm::kNestedLoop;
  Evaluator ev(*db_, nl);
  Result<Value> got = ev.Eval(e);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EvalOptions interp = nl;
  interp.compiled = false;
  EXPECT_EQ(*got, EvalExpr(*db_, e, interp));

  uint64_t matches = 0;
  for (const Value& row : got->elements()) {
    matches += row.FindField("g")->set_size();
  }
  const size_t pairs = EvalExpr(*db_, Expr::Table("X")).set_size() *
                       EvalExpr(*db_, Expr::Table("Y")).set_size();
  EXPECT_GT(matches, 0u);
  EXPECT_EQ(ev.stats().joins_nested_loop, 1u);
  EXPECT_EQ(ev.stats().compiled_evals, matches);
  EXPECT_EQ(ev.stats().interp_fallback_evals, pairs);
}

}  // namespace
}  // namespace n2j
