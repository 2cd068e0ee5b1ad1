#include <algorithm>
#include <set>

#include "adl/analysis.h"
#include "adl/printer.h"
#include "common/str_util.h"
#include "shred/shred.h"

namespace n2j {
namespace shred {

const char* RangeKindName(RangeKind k) {
  switch (k) {
    case RangeKind::kExtent: return "extent";
    case RangeKind::kChildAttr: return "child";
    case RangeKind::kConstSet: return "const-set";
    case RangeKind::kOpaque: return "opaque";
  }
  return "?";
}

namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Builds the DAG bottom-up from the query's comprehension spine.
class Translator {
 public:
  ShredPlan Build(const ExprPtr& query) {
    ExprPtr cur = query;
    std::vector<std::string> available;
    // Root-level let prefix (the hoisting rewrite produces these):
    // evaluated once, bound as context of every node.
    while (cur->kind() == ExprKind::kLet) {
      plan_.lets.emplace_back(cur->var(), cur->child(0));
      if (!Contains(available, cur->var())) available.push_back(cur->var());
      cur = cur->child(1);
    }
    if (IsComprehensionShaped(cur)) {
      BuildNode(cur, available);
    } else {
      plan_.scalar_root = true;
      plan_.scalar_root_expr = cur;
    }
    for (const FlatNode& n : plan_.nodes) {
      for (const RangeSpec& r : n.ranges) {
        if (r.kind == RangeKind::kExtent || r.kind == RangeKind::kChildAttr) {
          ++plan_.structural_ranges;
        } else {
          ++plan_.other_ranges;
        }
      }
    }
    return std::move(plan_);
  }

 private:
  /// Variable names the source query cannot contain ('$' is not an
  /// identifier character in OOSQL), so no capture checks are needed.
  std::string Fresh() { return StrFormat("$s%d", next_var_++); }

  static OutputSpec ScalarOut(ExprPtr e) {
    OutputSpec o;
    o.kind = OutputSpec::Kind::kScalar;
    o.scalar = std::move(e);
    return o;
  }

  /// Classifies the source of a range bound to `var`. Select layers
  /// whose binder is the same `var` collapse into the range predicate —
  /// innermost select first, matching the interpreter's evaluation
  /// order. (A select with a *different* binder is left intact and
  /// classified as a const-set or opaque subquery; collapsing it would
  /// need capture-avoiding renaming for no structural gain.)
  RangeSpec ClassifyRange(const std::string& var, ExprPtr src,
                          const std::vector<std::string>& bound) {
    RangeSpec r;
    r.var = var;
    std::vector<ExprPtr> preds;  // collected outermost-first
    while (src->kind() == ExprKind::kSelect && src->var() == var) {
      preds.push_back(src->body());
      src = src->input();
    }
    if (!preds.empty()) {
      std::reverse(preds.begin(), preds.end());  // innermost first
      r.pred = Expr::AndAll(preds);
    }
    r.source = src;
    if (src->kind() == ExprKind::kGetTable) {
      r.kind = RangeKind::kExtent;
      r.table = src->name();
    } else if (src->kind() == ExprKind::kFieldAccess &&
               src->child(0)->kind() == ExprKind::kVar &&
               Contains(bound, src->child(0)->name())) {
      r.kind = RangeKind::kChildAttr;
      r.parent_var = src->child(0)->name();
      r.attr = src->name();
    } else if (IsUncorrelated(src, std::set<std::string>(bound.begin(),
                                                         bound.end()))) {
      r.kind = RangeKind::kConstSet;
    } else {
      r.kind = RangeKind::kOpaque;
    }
    return r;
  }

  /// Classifies a map/select body. Tuple construction recurses per
  /// field; a comprehension-shaped body becomes a child DAG node; any
  /// other body stays a row-wise scalar (always correct — the
  /// translation is total because of this default).
  OutputSpec BuildOutput(const ExprPtr& body,
                         const std::vector<std::string>& available) {
    if (body->kind() == ExprKind::kTupleConstruct) {
      OutputSpec o;
      o.kind = OutputSpec::Kind::kTuple;
      o.field_names = body->names();
      o.fields.reserve(body->num_children());
      for (const ExprPtr& c : body->children()) {
        o.fields.push_back(BuildOutput(c, available));
      }
      return o;
    }
    if (IsComprehensionShaped(body)) {
      OutputSpec o;
      o.kind = OutputSpec::Kind::kChild;
      o.child = BuildNode(body, available);
      return o;
    }
    return ScalarOut(body);
  }

  /// Peels the comprehension spine of `e` into one flat node; returns
  /// its id. `available` lists the bindings the parent can provide
  /// (outermost first).
  int BuildNode(const ExprPtr& e, const std::vector<std::string>& available) {
    int id = static_cast<int>(plan_.nodes.size());
    plan_.nodes.emplace_back();  // reserve the slot; children get higher ids
    FlatNode node;
    node.id = id;
    // Context = the bindings this subtree actually reads.
    std::set<std::string> fv = FreeVars(e);
    for (const std::string& v : available) {
      if (fv.count(v) > 0 && !Contains(node.ctx_vars, v)) {
        node.ctx_vars.push_back(v);
      }
    }

    std::vector<std::string> bound = node.ctx_vars;
    ExprPtr cur = e;
    bool done = false;
    while (!done) {
      switch (cur->kind()) {
        case ExprKind::kMap: {
          node.ranges.push_back(ClassifyRange(cur->var(), cur->input(), bound));
          bound.push_back(cur->var());
          node.out = BuildOutput(cur->body(), bound);
          done = true;
          break;
        }
        case ExprKind::kSelect: {
          // The whole select collapses into one filtered range; the
          // output is the surviving binding itself.
          node.ranges.push_back(ClassifyRange(cur->var(), cur, bound));
          bound.push_back(cur->var());
          node.out = ScalarOut(Expr::Var(cur->var()));
          done = true;
          break;
        }
        case ExprKind::kFlatten: {
          const ExprPtr& inner = cur->input();
          if (inner->kind() == ExprKind::kMap) {
            // ⋃(α[v : body](in)): range over in, keep peeling body.
            // Stitching collects *all* work-row outputs into one set, so
            // the union needs no operator of its own.
            node.ranges.push_back(
                ClassifyRange(inner->var(), inner->input(), bound));
            bound.push_back(inner->var());
            cur = inner->body();
            break;
          }
          // Generic ⋃(x): bind the element sets, then their elements.
          std::string sv;
          if (inner->kind() == ExprKind::kSelect) {
            sv = inner->var();  // reuse the select's own binder
          } else {
            sv = Fresh();
          }
          node.ranges.push_back(ClassifyRange(sv, inner, bound));
          bound.push_back(sv);
          std::string ev = Fresh();
          node.ranges.push_back(ClassifyRange(ev, Expr::Var(sv), bound));
          bound.push_back(ev);
          node.out = ScalarOut(Expr::Var(ev));
          done = true;
          break;
        }
        case ExprKind::kGetTable: {
          std::string v = Fresh();
          node.ranges.push_back(ClassifyRange(v, cur, bound));
          bound.push_back(v);
          node.out = ScalarOut(Expr::Var(v));
          done = true;
          break;
        }
        default: {
          // Only reachable through the flatten-of-map continuation: the
          // remaining body contributes a *set* per work row whose
          // elements all land in the stitched union.
          std::string v = Fresh();
          node.ranges.push_back(ClassifyRange(v, cur, bound));
          bound.push_back(v);
          node.out = ScalarOut(Expr::Var(v));
          done = true;
          break;
        }
      }
    }
    node.label = StrFormat("node%d", id);
    plan_.nodes[static_cast<size_t>(id)] = std::move(node);
    return id;
  }

  ShredPlan plan_;
  int next_var_ = 0;
};

void DescribeOutput(const OutputSpec& o, std::string* out) {
  switch (o.kind) {
    case OutputSpec::Kind::kScalar:
      *out += AlgebraStr(o.scalar);
      break;
    case OutputSpec::Kind::kChild:
      *out += StrFormat("node%d", o.child);
      break;
    case OutputSpec::Kind::kTuple:
      *out += "(";
      for (size_t i = 0; i < o.fields.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += o.field_names[i] + " = ";
        DescribeOutput(o.fields[i], out);
      }
      *out += ")";
      break;
  }
}

}  // namespace

ShredPlan ShredQuery(const ExprPtr& query) {
  Translator t;
  return t.Build(query);
}

std::string ShredPlan::Describe() const {
  std::string out = StrFormat(
      "shredded plan: %zu node%s, %zu let%s, %d structural range%s, "
      "%d other\n",
      nodes.size(), nodes.size() == 1 ? "" : "s", lets.size(),
      lets.size() == 1 ? "" : "s", structural_ranges,
      structural_ranges == 1 ? "" : "s", other_ranges);
  for (const auto& [var, def] : lets) {
    out += StrFormat("  let %s = %s\n", var.c_str(), AlgebraStr(def).c_str());
  }
  if (scalar_root) {
    out += StrFormat("  scalar root: %s\n",
                     AlgebraStr(scalar_root_expr).c_str());
    return out;
  }
  for (const FlatNode& n : nodes) {
    out += StrFormat("  node%d", n.id);
    if (!n.ctx_vars.empty()) {
      out += StrFormat(" [ctx: %s]", Join(n.ctx_vars, ", ").c_str());
    }
    out += "\n";
    for (const RangeSpec& r : n.ranges) {
      out += StrFormat("    %s in %s", r.var.c_str(), RangeKindName(r.kind));
      switch (r.kind) {
        case RangeKind::kExtent:
          out += " " + r.table;
          break;
        case RangeKind::kChildAttr:
          out += StrFormat(" %s.%s", r.parent_var.c_str(), r.attr.c_str());
          break;
        default:
          out += " " + AlgebraStr(r.source);
          break;
      }
      if (r.pred != nullptr) {
        out += " where " + AlgebraStr(r.pred);
      }
      out += "\n";
    }
    out += "    out: ";
    DescribeOutput(n.out, &out);
    out += "\n";
  }
  return out;
}

}  // namespace shred
}  // namespace n2j
