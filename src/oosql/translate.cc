#include "oosql/translate.h"

#include "common/str_util.h"
#include "oosql/parser.h"

namespace n2j {

Status Translator::ErrorAt(const QExpr& q, const std::string& msg) const {
  return Status::TypeError(
      StrFormat("%d:%d: %s", q.line, q.column, msg.c_str()));
}

Result<TypedExpr> Translator::Typed(const QExpr& q, ExprPtr e,
                                    std::span<const TypePtr> kids,
                                    const TypeEnv& env) const {
  Result<TypePtr> t = TypeChecker(schema_, db_).Rule(*e, kids, env);
  if (!t.ok()) return ErrorAt(q, t.status().message());
  return TypedExpr{std::move(e), std::move(t).value()};
}

Result<TypedExpr> Translator::Translate(const QExprPtr& query) {
  TypeEnv env;
  return Tr(query, env);
}

Result<TypedExpr> Translator::TranslateString(const std::string& text) {
  N2J_ASSIGN_OR_RETURN(QExprPtr q, Parser::ParseQueryString(text));
  return Translate(q);
}

Result<TypedExpr> Translator::Tr(const QExprPtr& qp, TypeEnv& env) {
  const QExpr& q = *qp;
  switch (q.kind) {
    case QExpr::Kind::kIntLit:
      return Typed(q, Expr::Const(Value::Int(q.int_value)), {}, env);
    case QExpr::Kind::kDoubleLit:
      return Typed(q, Expr::Const(Value::Double(q.double_value)), {}, env);
    case QExpr::Kind::kStringLit:
      return Typed(q, Expr::Const(Value::String(q.str)), {}, env);
    case QExpr::Kind::kBoolLit:
      return Typed(q, Expr::Const(Value::Bool(q.bool_value)), {}, env);

    case QExpr::Kind::kIdent: {
      // Variables shadow extents, which shadow tables (the table rule
      // tries extents first).
      if (env.Lookup(q.str) != nullptr) {
        return Typed(q, Expr::Var(q.str), {}, env);
      }
      Result<TypedExpr> table = Typed(q, Expr::Table(q.str), {}, env);
      if (table.ok()) return table;
      return ErrorAt(q, "unknown identifier '" + q.str +
                            "' (not a variable, extent, or table)");
    }

    case QExpr::Kind::kField: {
      N2J_ASSIGN_OR_RETURN(TypedExpr base, Tr(q.kids[0], env));
      // Implicit dereference through object references: e.supplier.sname
      // lowers to deref<Supplier>(e.supplier).sname.
      if (base.type->is_ref()) {
        ExprPtr deref =
            Expr::Deref(std::move(base.expr), base.type->class_name());
        TypePtr ref[] = {std::move(base.type)};
        N2J_ASSIGN_OR_RETURN(base, Typed(q, std::move(deref), ref, env));
      }
      TypePtr kids[] = {std::move(base.type)};
      return Typed(q, Expr::Access(std::move(base.expr), q.str), kids, env);
    }

    case QExpr::Kind::kTupleProject: {
      N2J_ASSIGN_OR_RETURN(TypedExpr base, Tr(q.kids[0], env));
      TypePtr kids[] = {std::move(base.type)};
      return Typed(q, Expr::TupleProject(std::move(base.expr), q.names),
                   kids, env);
    }

    case QExpr::Kind::kTupleLit:
    case QExpr::Kind::kSetLit: {
      std::vector<ExprPtr> values;
      std::vector<TypePtr> kids;
      values.reserve(q.kids.size());
      kids.reserve(q.kids.size());
      for (const QExprPtr& k : q.kids) {
        N2J_ASSIGN_OR_RETURN(TypedExpr v, Tr(k, env));
        values.push_back(std::move(v.expr));
        kids.push_back(std::move(v.type));
      }
      ExprPtr e = q.kind == QExpr::Kind::kTupleLit
                      ? Expr::TupleConstruct(q.names, std::move(values))
                      : Expr::SetConstruct(std::move(values));
      return Typed(q, std::move(e), kids, env);
    }

    case QExpr::Kind::kUnary:
    case QExpr::Kind::kIsEmptyCall:
    case QExpr::Kind::kAgg: {
      N2J_ASSIGN_OR_RETURN(TypedExpr v, Tr(q.kids[0], env));
      TypePtr kids[] = {std::move(v.type)};
      ExprPtr e = q.kind == QExpr::Kind::kAgg
                      ? Expr::Agg(q.agg, std::move(v.expr))
                      : Expr::Un(q.kind == QExpr::Kind::kUnary
                                     ? q.uop
                                     : UnOp::kIsEmpty,
                                 std::move(v.expr));
      return Typed(q, std::move(e), kids, env);
    }

    case QExpr::Kind::kBinary: {
      N2J_ASSIGN_OR_RETURN(TypedExpr l, Tr(q.kids[0], env));
      N2J_ASSIGN_OR_RETURN(TypedExpr r, Tr(q.kids[1], env));
      TypePtr kids[] = {std::move(l.type), std::move(r.type)};
      return Typed(q, Expr::Bin(q.bop, std::move(l.expr), std::move(r.expr)),
                   kids, env);
    }

    case QExpr::Kind::kQuant: {
      N2J_ASSIGN_OR_RETURN(TypedExpr range, Tr(q.kids[0], env));
      env.Push(q.names[0], TypeChecker::BinderType(range.type));
      Result<TypedExpr> pred = q.kids.size() > 1
                                   ? Tr(q.kids[1], env)
                                   : Typed(q, Expr::True(), {}, env);
      env.Pop();
      if (!pred.ok()) return pred.status();
      TypePtr kids[] = {std::move(range.type), std::move(pred->type)};
      return Typed(q,
                   Expr::Quant(q.quant, q.names[0], std::move(range.expr),
                               std::move(pred->expr)),
                   kids, env);
    }

    case QExpr::Kind::kSelect:
      return TrSelect(q, env);
  }
  return Status::Internal("unhandled OOSQL AST kind");
}

Result<TypedExpr> Translator::TrSelect(const QExpr& q, TypeEnv& env) {
  size_t n = q.NumRanges();
  N2J_CHECK(n >= 1);

  // Translate ranges left to right, accumulating scope: later ranges may
  // use earlier variables (dependent iteration over set-valued
  // attributes, e.g. `from s in SUPPLIER, x in s.parts`).
  std::vector<TypedExpr> ranges;
  ranges.reserve(n);
  const size_t depth = env.size();
  for (size_t i = 0; i < n; ++i) {
    Result<TypedExpr> range = Tr(q.Range(i), env);
    if (!range.ok()) {
      env.Truncate(depth);
      return range.status();
    }
    env.Push(q.names[i], TypeChecker::BinderType(range->type));
    ranges.push_back(std::move(range).value());
  }
  Result<TypedExpr> where =
      q.has_where ? Tr(q.Where(), env) : Result<TypedExpr>(TypedExpr{});
  Result<TypedExpr> body =
      where.ok() ? Tr(q.SelectBody(), env) : where.status();
  env.Truncate(depth);
  if (!body.ok()) return body.status();

  // Innermost: α[vn : body](σ[vn : where](Rn)); the σ is emitted only
  // when a where-clause is present (the paper's α∘σ translation).
  const std::string& inner = q.names[n - 1];
  TypedExpr core = std::move(ranges[n - 1]);
  if (q.has_where) {
    TypePtr kids[] = {std::move(core.type), std::move(where->type)};
    N2J_ASSIGN_OR_RETURN(
        core, Typed(q,
                    Expr::Select(inner, std::move(where->expr),
                                 std::move(core.expr)),
                    kids, env));
  }
  TypePtr kids[] = {std::move(core.type), std::move(body->type)};
  N2J_ASSIGN_OR_RETURN(
      core, Typed(q,
                  Expr::Map(inner, std::move(body->expr),
                            std::move(core.expr)),
                  kids, env));
  // Enclosing ranges: each adds a map producing a set of sets, flattened.
  for (size_t i = n - 1; i-- > 0;) {
    TypePtr map_kids[] = {std::move(ranges[i].type), std::move(core.type)};
    N2J_ASSIGN_OR_RETURN(
        TypedExpr map,
        Typed(q,
              Expr::Map(q.names[i], std::move(core.expr),
                        std::move(ranges[i].expr)),
              map_kids, env));
    TypePtr flatten_kids[] = {std::move(map.type)};
    N2J_ASSIGN_OR_RETURN(core,
                         Typed(q, Expr::Flatten(std::move(map.expr)),
                               flatten_kids, env));
  }
  return core;
}

}  // namespace n2j
