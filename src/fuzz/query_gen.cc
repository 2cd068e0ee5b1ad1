#include "fuzz/query_gen.h"

#include <algorithm>
#include <cstring>

#include "common/str_util.h"

namespace n2j {
namespace fuzz {

namespace {

const char* kCmpOps[] = {"=", "<>", "<", "<=", ">", ">="};
const char* kSetCmpOps[] = {"subset", "subseteq", "supset",
                            "supseteq", "=", "<>"};
const char* kSetBinOps[] = {"union", "intersect", "minus"};

/// Chance that a multi-range block's where-clause starts with an equality
/// between int attributes of two of its range variables — the conjunct
/// Rule 2 turns into a join key, which the rest of the grammar produces
/// too rarely to exercise the flat join graph.
constexpr double kEquiJoinProb = 0.5;

}  // namespace

QueryGenerator::QueryGenerator(const Database& db, uint64_t seed,
                               GenOptions options)
    : db_(db), rng_(seed), opts_(options) {
  for (const std::string& name : db_.TableNames()) {
    const Table* t = db_.FindTable(name);
    if (t != nullptr && t->row_type() && t->row_type()->is_tuple()) {
      tables_.push_back(name);
    }
  }
}

std::vector<std::string> QueryGenerator::FieldsOfKind(const TypePtr& tuple,
                                                      Type::Kind kind) const {
  std::vector<std::string> out;
  if (!tuple || !tuple->is_tuple()) return out;
  for (const TypeField& f : tuple->fields()) {
    if (f.type->kind() != kind) continue;
    // Set-valued fields only count when they have the canonical
    // { (d : int) } shape the generator knows how to compare.
    if (kind == Type::Kind::kSet && !IsDSet(f.type)) continue;
    out.push_back(f.name);
  }
  return out;
}

bool QueryGenerator::IsDSet(const TypePtr& t) const {
  if (!t || !t->is_set() || !t->element()->is_tuple()) return false;
  const auto& fs = t->element()->fields();
  return fs.size() == 1 && fs[0].name == "d" && fs[0].type->is_int();
}

std::string QueryGenerator::FreshVar() {
  return StrFormat("v%d", next_var_++);
}

std::vector<int> QueryGenerator::VarsWithField(const Scope& scope,
                                               Type::Kind kind) const {
  std::vector<int> out;
  for (size_t i = 0; i < scope.size(); ++i) {
    if (!FieldsOfKind(scope[i].type, kind).empty()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Range expressions: where from-clause / quantifier variables come from.

QueryGenerator::RangeChoice QueryGenerator::GenRange(int depth,
                                                     const Scope& scope) {
  // Quantifier ranges parse at postfix level, so anything beyond a table
  // name or a path gets parenthesized here.
  std::vector<int> set_vars = VarsWithField(scope, Type::Kind::kSet);
  int pick = static_cast<int>(rng_.Uniform(0, 9));
  if (!set_vars.empty() && pick >= 7) {
    // From-clause nesting over a set-valued attribute: `z in x.c`.
    const Binding& b = scope[static_cast<size_t>(
        set_vars[static_cast<size_t>(rng_.Uniform(
            0, static_cast<int64_t>(set_vars.size()) - 1))])];
    std::vector<std::string> sets = FieldsOfKind(b.type, Type::Kind::kSet);
    const std::string& f = sets[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(sets.size()) - 1))];
    return {b.name + "." + f, b.type->FindField(f)->element()};
  }
  if (depth > 0 && pick == 6 && !tables_.empty()) {
    // Nested from-clause: range is itself a (filtered) subquery.
    const std::string& t = tables_[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(tables_.size()) - 1))];
    TypePtr row = db_.FindTable(t)->row_type();
    std::string v = FreshVar();
    Scope inner = scope;
    inner.push_back({v, row});
    std::string text = "(select " + v + " from " + v + " in " + t;
    if (rng_.Bernoulli(opts_.where_prob)) {
      text += " where " + GenPred(depth - 1, inner);
    }
    text += ")";
    return {text, row};
  }
  if (depth > 0 && pick == 5) {
    // Range over a computed set of (d : int) tuples.
    return {"(" + GenDSet(depth - 1, scope) + ")",
            Type::Tuple({{"d", Type::Int()}})};
  }
  // Default: a base table.
  const std::string& t = tables_[static_cast<size_t>(
      rng_.Uniform(0, static_cast<int64_t>(tables_.size()) - 1))];
  return {t, db_.FindTable(t)->row_type()};
}

// ---------------------------------------------------------------------------
// Typed expression builders.

std::string QueryGenerator::GenInt(int depth, const Scope& scope) {
  std::vector<int> int_vars = VarsWithField(scope, Type::Kind::kInt);
  int pick = static_cast<int>(rng_.Uniform(0, depth > 0 ? 9 : 5));
  if (pick <= 1 || int_vars.empty()) {
    return StrFormat("%d", static_cast<int>(rng_.Uniform(0, 6)));
  }
  if (pick <= 5) {
    const Binding& b = scope[static_cast<size_t>(
        int_vars[static_cast<size_t>(rng_.Uniform(
            0, static_cast<int64_t>(int_vars.size()) - 1))])];
    std::vector<std::string> fs = FieldsOfKind(b.type, Type::Kind::kInt);
    return b.name + "." +
           fs[static_cast<size_t>(
               rng_.Uniform(0, static_cast<int64_t>(fs.size()) - 1))];
  }
  if (pick <= 6) return "count(" + GenAnySet(depth - 1, scope) + ")";
  if (pick <= 7) return "sum(" + GenIntSet(depth - 1, scope) + ")";
  static const char* kArith[] = {"+", "-", "*"};
  return "(" + GenInt(depth - 1, scope) + " " +
         kArith[rng_.Uniform(0, 2)] + " " + GenInt(depth - 1, scope) + ")";
}

std::string QueryGenerator::GenDSet(int depth, const Scope& scope) {
  // With-bound names and set-valued attributes are the cheap leaves.
  std::vector<int> dset_names;
  for (size_t i = 0; i < scope.size(); ++i) {
    if (IsDSet(scope[i].type)) dset_names.push_back(static_cast<int>(i));
  }
  std::vector<int> set_vars = VarsWithField(scope, Type::Kind::kSet);
  int pick = static_cast<int>(rng_.Uniform(0, depth > 0 ? 9 : 4));

  if (!dset_names.empty() && pick == 0) {
    return scope[static_cast<size_t>(dset_names[static_cast<size_t>(
                     rng_.Uniform(0, static_cast<int64_t>(
                                         dset_names.size()) - 1))])]
        .name;
  }
  if (!set_vars.empty() && pick <= 2) {
    const Binding& b = scope[static_cast<size_t>(
        set_vars[static_cast<size_t>(rng_.Uniform(
            0, static_cast<int64_t>(set_vars.size()) - 1))])];
    std::vector<std::string> fs = FieldsOfKind(b.type, Type::Kind::kSet);
    return b.name + "." +
           fs[static_cast<size_t>(
               rng_.Uniform(0, static_cast<int64_t>(fs.size()) - 1))];
  }
  if (pick <= 4 || depth <= 0) {
    // Set literal of unary (d : int) tuples.
    int n = static_cast<int>(rng_.Uniform(1, 3));
    std::vector<std::string> elems;
    for (int i = 0; i < n; ++i) {
      elems.push_back(StrFormat("(d = %d)",
                                static_cast<int>(rng_.Uniform(0, 6))));
    }
    return "{" + Join(elems, ", ") + "}";
  }
  if (pick <= 7) {
    // Subquery producing (d : int) tuples — the shape Tables 1/2 rewrite.
    RangeChoice r = GenRange(depth - 1, scope);
    std::string v = FreshVar();
    Scope inner = scope;
    inner.push_back({v, r.element});
    std::string text =
        "(select (d = " + GenInt(depth - 1, inner) + ") from " + v +
        " in " + r.text;
    if (rng_.Bernoulli(opts_.where_prob)) {
      text += " where " + GenPred(depth - 1, inner);
    }
    text += ")";
    return text;
  }
  return "(" + GenDSet(depth - 1, scope) + " " +
         kSetBinOps[rng_.Uniform(0, 2)] + " " + GenDSet(depth - 1, scope) +
         ")";
}

std::string QueryGenerator::GenIntSet(int depth, const Scope& scope) {
  RangeChoice r = GenRange(depth > 0 ? depth - 1 : 0, scope);
  std::string v = FreshVar();
  Scope inner = scope;
  inner.push_back({v, r.element});
  std::string text =
      "(select " + GenInt(std::max(depth - 1, 0), inner) + " from " + v +
      " in " + r.text;
  if (depth > 0 && rng_.Bernoulli(opts_.where_prob)) {
    text += " where " + GenPred(depth - 1, inner);
  }
  text += ")";
  return text;
}

std::string QueryGenerator::GenAnySet(int depth, const Scope& scope) {
  int pick = static_cast<int>(rng_.Uniform(0, 3));
  if (pick == 0 && !tables_.empty()) {
    return tables_[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(tables_.size()) - 1))];
  }
  if (pick == 1 && depth > 0) return GenIntSet(depth, scope);
  return GenDSet(depth, scope);
}

// ---------------------------------------------------------------------------
// Predicates.

std::string QueryGenerator::GenPred(int depth, const Scope& scope) {
  std::vector<int> str_vars = VarsWithField(scope, Type::Kind::kString);
  std::vector<int> set_vars = VarsWithField(scope, Type::Kind::kSet);
  int pick = static_cast<int>(rng_.Uniform(0, depth > 0 ? 13 : 5));

  switch (pick) {
    case 0:
    case 1:
      return GenInt(std::max(depth - 1, 0), scope) + " " +
             kCmpOps[rng_.Uniform(0, 5)] + " " +
             GenInt(std::max(depth - 1, 0), scope);
    case 2:
      if (!str_vars.empty()) {
        const Binding& b = scope[static_cast<size_t>(
            str_vars[static_cast<size_t>(rng_.Uniform(
                0, static_cast<int64_t>(str_vars.size()) - 1))])];
        std::vector<std::string> fs =
            FieldsOfKind(b.type, Type::Kind::kString);
        static const char* kStrings[] = {"red", "blue", "green", "amber"};
        return b.name + "." + fs[0] +
               (rng_.Bernoulli(0.5) ? " = \"" : " <> \"") +
               kStrings[rng_.Uniform(0, 3)] + "\"";
      }
      [[fallthrough]];
    case 3:
      if (!set_vars.empty()) {
        const Binding& b = scope[static_cast<size_t>(
            set_vars[static_cast<size_t>(rng_.Uniform(
                0, static_cast<int64_t>(set_vars.size()) - 1))])];
        std::vector<std::string> fs = FieldsOfKind(b.type, Type::Kind::kSet);
        std::string e = b.name + "." + fs[0];
        if (rng_.Bernoulli(0.4)) return "isempty(" + e + ")";
        return StrFormat("(d = %d)", static_cast<int>(rng_.Uniform(0, 6))) +
               " in " + e;
      }
      [[fallthrough]];
    case 4:
      return rng_.Bernoulli(0.7) ? "true" : "false";
    case 5: {
      // Quantifier — the bread and butter of Rules 1 and 2.
      RangeChoice r = GenRange(depth - 1, scope);
      std::string v = FreshVar();
      Scope inner = scope;
      inner.push_back({v, r.element});
      bool needs_parens = r.text.find(' ') != std::string::npos &&
                          r.text.front() != '(';
      std::string range = needs_parens ? "(" + r.text + ")" : r.text;
      return std::string("(") + (rng_.Bernoulli(0.6) ? "exists " : "forall ") +
             v + " in " + range + " : " + GenPred(depth - 1, inner) + ")";
    }
    case 6:
      return "(" + GenPred(depth - 1, scope) +
             (rng_.Bernoulli(0.5) ? " and " : " or ") +
             GenPred(depth - 1, scope) + ")";
    case 7:
      return "(not " + GenPred(depth - 1, scope) + ")";
    case 8: {
      // Set comparison: Tables 1 and 2 of the paper.
      std::string lhs = GenDSet(depth - 1, scope);
      const char* op = kSetCmpOps[rng_.Uniform(0, 5)];
      // "(ident = ..." would parse as a tuple literal, so shield a bare
      // identifier behind an extra pair of parentheses.
      if (std::strcmp(op, "=") == 0 &&
          lhs.find_first_not_of(
              "abcdefghijklmnopqrstuvwxyz"
              "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") == std::string::npos) {
        lhs = "(" + lhs + ")";
      }
      return "(" + lhs + " " + op + " " + GenDSet(depth - 1, scope) + ")";
    }
    case 9:
      return rng_.Bernoulli(0.5)
                 ? "(" + GenInt(depth - 1, scope) + " in " +
                       GenIntSet(depth - 1, scope) + ")"
                 : "(" + GenIntSet(depth - 1, scope) + " contains " +
                       GenInt(depth - 1, scope) + ")";
    case 10: {
      static const char* kAggs[] = {"count", "sum", "min", "max"};
      int agg = static_cast<int>(rng_.Uniform(0, 3));
      std::string arg = agg == 0 ? GenAnySet(depth - 1, scope)
                                 : GenIntSet(depth - 1, scope);
      return std::string(kAggs[agg]) + "(" + arg + ") " +
             kCmpOps[rng_.Uniform(0, 5)] + " " + GenInt(depth - 1, scope);
    }
    case 11:
      return "isempty(" + GenAnySet(depth - 1, scope) + ")";
    default:
      return StrFormat("(d = %d)", static_cast<int>(rng_.Uniform(0, 6))) +
             " in " + GenDSet(depth - 1, scope);
  }
}

// ---------------------------------------------------------------------------
// Select blocks.

std::string QueryGenerator::GenBody(int depth, const Scope& scope) {
  const Binding& self = scope.back();
  int pick = static_cast<int>(rng_.Uniform(0, 9));
  if (depth > 0 && rng_.Bernoulli(opts_.nested_body_prob)) {
    // Select-clause nesting: the body is itself a query (possibly
    // correlated) — the paper's Query 3 / Figure 1 shape.
    std::vector<std::string> ints = FieldsOfKind(self.type, Type::Kind::kInt);
    std::string label = ints.empty() ? std::string("p")
                                     : "p_" + ints[0];
    return "(" + label + " = " + self.name +
           (ints.empty() ? "" : "." + ints[0]) + ", q = " +
           GenDSet(depth - 1, scope) + ")";
  }
  std::vector<std::string> ints = FieldsOfKind(self.type, Type::Kind::kInt);
  if (pick <= 3 || ints.empty()) return self.name;  // whole tuple
  if (pick <= 6) {
    return self.name + "." +
           ints[static_cast<size_t>(
               rng_.Uniform(0, static_cast<int64_t>(ints.size()) - 1))];
  }
  if (pick == 7 && self.type->fields().size() > 1) {
    // Tuple projection x[a, b].
    std::vector<std::string> names = self.type->FieldNames();
    int keep = static_cast<int>(
        rng_.Uniform(1, static_cast<int64_t>(names.size())));
    names.resize(static_cast<size_t>(keep));
    return self.name + "[" + Join(names, ", ") + "]";
  }
  return "(p = " + GenInt(depth > 0 ? depth - 1 : 0, scope) + ")";
}

std::string QueryGenerator::GenSelect(int depth, const Scope& outer) {
  Scope scope = outer;
  int nranges = 1;
  if (opts_.max_ranges > 1 && rng_.Bernoulli(opts_.multi_range_prob)) {
    nranges = static_cast<int>(rng_.Uniform(2, opts_.max_ranges));
  }
  std::vector<std::string> range_texts;
  std::vector<std::string> range_vars;
  for (int i = 0; i < nranges; ++i) {
    RangeChoice r = GenRange(depth, scope);
    std::string v = FreshVar();
    // Ranges may reference earlier variables of the same from-clause
    // (dependent ranges, e.g. `from x in F0, z in x.c`).
    scope.push_back({v, r.element});
    range_vars.push_back(v);
    range_texts.push_back(v + " in " + r.text);
  }

  // Optional with-bound local subquery (macro-expanded by the parser).
  bool use_with = depth > 0 && rng_.Bernoulli(opts_.with_prob);
  std::string with_name, with_def;
  if (use_with) {
    with_name = StrFormat("W%d", next_var_++);
    with_def = GenDSet(depth - 1, scope);
    // Insert before the range variables so scope.back() (the variable
    // GenBody treats as primary) stays a range variable.
    scope.insert(scope.begin() + static_cast<long>(outer.size()),
                 {with_name, Type::Set(Type::Tuple({{"d", Type::Int()}}))});
  }

  std::string text = "select " + GenBody(depth, scope) + " from " +
                     Join(range_texts, ", ");
  std::string equi;
  if (nranges > 1 && rng_.Bernoulli(kEquiJoinProb)) {
    // vi.a = vj.b over two distinct range variables with int attributes.
    std::vector<std::string> keys;
    std::vector<size_t> owner;
    for (size_t i = 0; i < scope.size(); ++i) {
      const Binding& b = scope[i];
      if (std::find(range_vars.begin(), range_vars.end(), b.name) ==
          range_vars.end()) {
        continue;
      }
      for (const std::string& f : FieldsOfKind(b.type, Type::Kind::kInt)) {
        keys.push_back(b.name + "." + f);
        owner.push_back(i);
      }
    }
    if (!keys.empty()) {
      int64_t last = static_cast<int64_t>(keys.size()) - 1;
      size_t l = static_cast<size_t>(rng_.Uniform(0, last));
      size_t r = static_cast<size_t>(rng_.Uniform(0, last));
      if (owner[l] != owner[r]) equi = keys[l] + " = " + keys[r];
    }
  }
  if (!equi.empty()) {
    text += " where " + equi;
    if (rng_.Bernoulli(opts_.where_prob)) {
      text += " and " + GenPred(depth, scope);
    }
  } else if (rng_.Bernoulli(opts_.where_prob)) {
    text += " where " + GenPred(depth, scope);
  }
  if (use_with) text += " with " + with_name + " = " + with_def;
  return text;
}

std::string QueryGenerator::Generate() {
  Scope scope;
  return GenSelect(opts_.max_depth, scope);
}

// ---------------------------------------------------------------------------
// Malformed queries for rejection testing.

std::string QueryGenerator::GenerateMalformed() {
  std::string q = Generate();
  static const char* kJunk[] = {
      ")",  "(",      "{",     "}",      ",",  ".",        "=",
      ":",  "select", "from",  "where",  "in", "exists",   "forall",
      "''", "'oops",  "count", "subset", ";",  "1e999",    "..",
      "[",  "]",      "with",  "union",  "0x", "\"dquote", "%"};
  int n = static_cast<int>(rng_.Uniform(1, opts_.max_mutations));
  for (int i = 0; i < n && !q.empty(); ++i) {
    switch (rng_.Uniform(0, 4)) {
      case 0: {  // delete a span
        size_t pos = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(q.size()) - 1));
        size_t len = static_cast<size_t>(rng_.Uniform(1, 5));
        q.erase(pos, len);
        break;
      }
      case 1: {  // insert junk
        size_t pos = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(q.size())));
        const char* junk = kJunk[rng_.Uniform(
            0, static_cast<int64_t>(std::size(kJunk)) - 1)];
        q.insert(pos, std::string(" ") + junk + " ");
        break;
      }
      case 2:  // truncate
        q.resize(static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(q.size()) - 1)));
        break;
      case 3: {  // swap two characters
        size_t a = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(q.size()) - 1));
        size_t b = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(q.size()) - 1));
        std::swap(q[a], q[b]);
        break;
      }
      default: {  // duplicate a chunk
        size_t pos = static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(q.size()) - 1));
        size_t len = std::min<size_t>(
            static_cast<size_t>(rng_.Uniform(1, 8)), q.size() - pos);
        q.insert(pos, q.substr(pos, len));
        break;
      }
    }
  }
  return q;
}

}  // namespace fuzz
}  // namespace n2j
