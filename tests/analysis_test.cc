#include "adl/analysis.h"

#include <gtest/gtest.h>

#include "adl/printer.h"

namespace n2j {
namespace {

TEST(AnalysisTest, FreeVarsSimple) {
  ExprPtr e = Expr::Bin(BinOp::kEq, Expr::Access(Expr::Var("x"), "a"),
                        Expr::Var("y"));
  EXPECT_EQ(FreeVars(e), (VarSet{"x", "y"}));
}

TEST(AnalysisTest, BinderShadowsVariable) {
  // σ[x : x.a = y.b](X) — x bound, y free.
  ExprPtr e = Expr::Select(
      "x",
      Expr::Bin(BinOp::kEq, Expr::Access(Expr::Var("x"), "a"),
                Expr::Access(Expr::Var("y"), "b")),
      Expr::Table("X"));
  EXPECT_EQ(FreeVars(e), (VarSet{"y"}));
  EXPECT_FALSE(IsFreeIn("x", e));
  EXPECT_TRUE(IsFreeIn("y", e));
}

TEST(AnalysisTest, InputOfIteratorSeesOuterScope) {
  // σ[x : true](x) — the operand x is NOT bound by the selection.
  ExprPtr e = Expr::Select("x", Expr::True(), Expr::Var("x"));
  EXPECT_TRUE(IsFreeIn("x", e));
}

TEST(AnalysisTest, QuantifierBindsOnlyPredicate) {
  // ∃y ∈ x.c · y = z
  ExprPtr e = Expr::Quant(QuantKind::kExists, "y",
                          Expr::Access(Expr::Var("x"), "c"),
                          Expr::Eq(Expr::Var("y"), Expr::Var("z")));
  EXPECT_EQ(FreeVars(e), (VarSet{"x", "z"}));
}

TEST(AnalysisTest, JoinBindsBothVarsInPredicate) {
  ExprPtr e = Expr::Join(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                         Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
                                  Expr::Access(Expr::Var("y"), "b")));
  EXPECT_TRUE(FreeVars(e).empty());
}

TEST(AnalysisTest, ContainsBaseTable) {
  EXPECT_TRUE(ContainsBaseTable(Expr::Table("X")));
  EXPECT_TRUE(ContainsBaseTable(
      Expr::Select("x", Expr::True(), Expr::Table("X"))));
  EXPECT_FALSE(ContainsBaseTable(Expr::Access(Expr::Var("x"), "c")));
}

TEST(AnalysisTest, SubstituteSimple) {
  ExprPtr e = Expr::Eq(Expr::Var("x"), Expr::Var("y"));
  ExprPtr s = Substitute(e, "x", Expr::Const(Value::Int(1)));
  EXPECT_EQ(AlgebraStr(s), "1 = y");
}

TEST(AnalysisTest, SubstituteRespectsShadowing) {
  // σ[x : x = y](x) — only the operand x is free.
  ExprPtr e = Expr::Select("x", Expr::Eq(Expr::Var("x"), Expr::Var("y")),
                           Expr::Var("x"));
  ExprPtr s = Substitute(e, "x", Expr::Table("T"));
  EXPECT_EQ(s->child(0)->kind(), ExprKind::kGetTable);
  // Bound occurrence unchanged.
  EXPECT_EQ(s->child(1)->child(0)->kind(), ExprKind::kVar);
}

TEST(AnalysisTest, SubstituteAvoidsCapture) {
  // Substituting y := x into σ[x : v = y](T) must not capture: the
  // binder x must be renamed first.
  ExprPtr e = Expr::Select("x", Expr::Eq(Expr::Var("x"), Expr::Var("y")),
                           Expr::Table("T"));
  ExprPtr s = Substitute(e, "y", Expr::Var("x"));
  // After substitution the predicate compares the (renamed) bound var
  // with the free x.
  EXPECT_NE(s->var(), "x");
  EXPECT_TRUE(IsFreeIn("x", s));
}

TEST(AnalysisTest, FreshVarAvoidsCollisions) {
  ExprPtr e = Expr::Select("x", Expr::Eq(Expr::Var("x"), Expr::Var("x1")),
                           Expr::Table("T"));
  std::string fresh = FreshVar("x", e);
  EXPECT_NE(fresh, "x");
  EXPECT_NE(fresh, "x1");
}

TEST(AnalysisTest, SplitConjunctsFlattensAnds) {
  ExprPtr a = Expr::Var("a");
  ExprPtr b = Expr::Var("b");
  ExprPtr c = Expr::Var("c");
  std::vector<ExprPtr> cs = SplitConjuncts(Expr::And(Expr::And(a, b), c));
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0]->name(), "a");
  EXPECT_EQ(cs[2]->name(), "c");
  // Non-and predicates come back as a single conjunct.
  EXPECT_EQ(SplitConjuncts(Expr::Or(a, b)).size(), 1u);
}

TEST(AnalysisTest, EqualsIsStructural) {
  ExprPtr a = Expr::Select("x", Expr::True(), Expr::Table("T"));
  ExprPtr b = Expr::Select("x", Expr::True(), Expr::Table("T"));
  ExprPtr c = Expr::Select("y", Expr::True(), Expr::Table("T"));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
}

TEST(AnalysisTest, TreeSizeCountsNodes) {
  ExprPtr e = Expr::And(Expr::Var("a"), Expr::Var("b"));
  EXPECT_EQ(e->TreeSize(), 3u);
}

}  // namespace
}  // namespace n2j
