#include "oosql/ast.h"

#include <algorithm>

#include "common/str_util.h"

namespace n2j {

std::string QExprToString(const QExprPtr& e) {
  switch (e->kind) {
    case QExpr::Kind::kIntLit:
      return std::to_string(e->int_value);
    case QExpr::Kind::kDoubleLit:
      return StrFormat("%g", e->double_value);
    case QExpr::Kind::kStringLit:
      return "\"" + e->str + "\"";
    case QExpr::Kind::kBoolLit:
      return e->bool_value ? "true" : "false";
    case QExpr::Kind::kIdent:
      return e->str;
    case QExpr::Kind::kField:
      return QExprToString(e->kids[0]) + "." + e->str;
    case QExpr::Kind::kTupleProject:
      return QExprToString(e->kids[0]) + "[" + Join(e->names, ", ") + "]";
    case QExpr::Kind::kTupleLit: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < e->names.size(); ++i) {
        parts.push_back(e->names[i] + " = " + QExprToString(e->kids[i]));
      }
      return "(" + Join(parts, ", ") + ")";
    }
    case QExpr::Kind::kSetLit: {
      std::vector<std::string> parts;
      for (const QExprPtr& k : e->kids) parts.push_back(QExprToString(k));
      return "{" + Join(parts, ", ") + "}";
    }
    case QExpr::Kind::kUnary:
      if (e->uop == UnOp::kNot) return "not (" + QExprToString(e->kids[0]) + ")";
      return "-(" + QExprToString(e->kids[0]) + ")";
    case QExpr::Kind::kBinary:
      return "(" + QExprToString(e->kids[0]) + " " + BinOpName(e->bop) +
             " " + QExprToString(e->kids[1]) + ")";
    case QExpr::Kind::kQuant: {
      std::string out = e->quant == QuantKind::kExists ? "exists " : "forall ";
      out += e->names[0] + " in " + QExprToString(e->kids[0]);
      if (e->kids.size() > 1) out += " : " + QExprToString(e->kids[1]);
      return out;
    }
    case QExpr::Kind::kAgg:
      return std::string(AggKindName(e->agg)) + "(" +
             QExprToString(e->kids[0]) + ")";
    case QExpr::Kind::kIsEmptyCall:
      return "isempty(" + QExprToString(e->kids[0]) + ")";
    case QExpr::Kind::kSelect: {
      std::string out = "select " + QExprToString(e->SelectBody()) + " from ";
      std::vector<std::string> ranges;
      for (size_t i = 0; i < e->NumRanges(); ++i) {
        ranges.push_back(e->names[i] + " in " + QExprToString(e->Range(i)));
      }
      out += Join(ranges, ", ");
      if (e->has_where) out += " where " + QExprToString(e->Where());
      return out;
    }
  }
  return "?";
}

QExprPtr SubstituteIdent(const QExprPtr& e, const std::string& name,
                         const QExprPtr& replacement) {
  if (e->kind == QExpr::Kind::kIdent) {
    return e->str == name ? replacement : e;
  }
  auto copy_with_kids = [&](std::vector<QExprPtr> kids) {
    auto node = std::make_shared<QExpr>(*e);
    node->kids = std::move(kids);
    node->height = 1;
    for (const QExprPtr& k : node->kids) {
      node->height = std::max(node->height, k->height + 1);
    }
    return QExprPtr(node);
  };

  if (e->kind == QExpr::Kind::kQuant) {
    // The quantifier variable shadows `name` in the predicate only.
    std::vector<QExprPtr> kids = e->kids;
    kids[0] = SubstituteIdent(kids[0], name, replacement);
    if (e->names[0] != name && kids.size() > 1) {
      kids[1] = SubstituteIdent(kids[1], name, replacement);
    }
    return copy_with_kids(std::move(kids));
  }

  if (e->kind == QExpr::Kind::kSelect) {
    // Range i sees bindings of ranges 0..i-1; body and where see all.
    std::vector<QExprPtr> kids = e->kids;
    bool shadowed = false;
    for (size_t i = 0; i < e->NumRanges(); ++i) {
      if (!shadowed) {
        kids[1 + i] = SubstituteIdent(kids[1 + i], name, replacement);
      }
      if (e->names[i] == name) shadowed = true;
    }
    if (!shadowed) {
      kids[0] = SubstituteIdent(kids[0], name, replacement);
      if (e->has_where) {
        kids.back() = SubstituteIdent(kids.back(), name, replacement);
      }
    }
    return copy_with_kids(std::move(kids));
  }

  std::vector<QExprPtr> kids;
  kids.reserve(e->kids.size());
  bool changed = false;
  for (const QExprPtr& k : e->kids) {
    QExprPtr nk = SubstituteIdent(k, name, replacement);
    if (nk != k) changed = true;
    kids.push_back(std::move(nk));
  }
  if (!changed) return e;
  return copy_with_kids(std::move(kids));
}

}  // namespace n2j
