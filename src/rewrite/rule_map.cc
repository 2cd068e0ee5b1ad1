// Rule 2 of the paper (nesting in the map operator), in its general form:
//
//   ⋃(α[x : α[y : f](σ[y : p](Y))](X))  =  α[t : f[t]](X ⋈_p Y)
//
// The translator emits a k-variable from-clause
//
//   select f from x1 in R1, ..., xk in Rk where c1 ∧ ... ∧ cm
//
// as the chain ⋃(α[x1 : ... ⋃(α[xk-1 : α[xk : f](σ[xk : c](Rk))](Rk-1))
// ...](R1)). The rule rewrites a whole chain at once, outermost first, so
// no suffix of it is decorrelated on its own:
//
//  - Each where-conjunct moves to the lowest range or join that binds all
//    of its from-variables. A conjunct over outer variables only leaves a
//    dependent range (`x in t.parts`) for a σ on the outer range; that is
//    sound only under the enclosing ⋃, where a rejected outer element
//    contributed ∅ anyway.
//  - Independent ranges (no earlier from-variable free, nothing that can
//    raise when evaluated eagerly) that conjuncts link become one
//    left-deep tree of joins, placed before the remaining ranges. Each
//    joined element is wrapped as (xi = xi), so the join output is the
//    tuple of the variables' bindings: attribute names the ranges share
//    never meet in a concatenation, and f and the conjuncts read xi as
//    t.xi.
//  - The other ranges stay nested maps, in from-clause order.
//
// Errors: the naive plan evaluates a conjunct only where every earlier
// conjunct held. A conjunct that may raise (CannotRaisePred) therefore
// stays innermost — over the join tree when that is innermost, where
// selection pushdown leaves it — and links no ranges. Only ranges that
// cannot raise are joined, since a join evaluates its operands eagerly.
// Moving the other conjuncts outward only skips evaluations the naive
// plan would do.

#include <bit>
#include <numeric>

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

/// A from-clause chain: its ranges in order, the innermost
/// where-conjuncts, and the select-clause body (null when it is the
/// innermost variable itself, i.e. α[xk : xk] was simplified away).
struct FromChain {
  std::vector<std::string> vars;
  std::vector<ExprPtr> ranges;
  std::vector<ExprPtr> conjuncts;
  ExprPtr body;
};

bool MatchChain(const ExprPtr& e, FromChain* ch) {
  ExprPtr cur = e;
  while (cur->kind() == ExprKind::kFlatten &&
         cur->input()->kind() == ExprKind::kMap) {
    const ExprPtr& m = cur->input();
    ch->vars.push_back(m->var());
    ch->ranges.push_back(m->input());
    cur = m->body();
  }
  if (ch->vars.empty()) return false;
  ExprPtr in = cur;
  if (cur->kind() == ExprKind::kMap) {
    ch->body = cur->body();
    in = cur->input();
  } else if (cur->kind() != ExprKind::kSelect) {
    return false;  // a bare innermost range: nothing binds a conjunct
  }
  const std::string& v = cur->var();
  if (in->kind() == ExprKind::kSelect) {
    ExprPtr p = in->body();
    if (in->var() != v) {
      if (IsFreeIn(v, p)) return false;
      p = Substitute(p, in->var(), Expr::Var(v));
    }
    ch->conjuncts = SplitConjuncts(p);
    in = in->input();
  }
  ch->vars.push_back(v);
  ch->ranges.push_back(in);
  std::set<std::string> distinct(ch->vars.begin(), ch->vars.end());
  return distinct.size() == ch->vars.size() && ch->vars.size() <= 64;
}

size_t Root(std::vector<size_t>& parent, size_t i) {
  while (parent[i] != i) i = parent[i] = parent[parent[i]];
  return i;
}

}  // namespace

ExprPtr ApplyRule2(const ExprPtr& e, RewriteContext& ctx) {
  FromChain ch;
  if (!MatchChain(e, &ch)) return nullptr;
  const size_t k = ch.vars.size();
  auto bit = [](size_t i) { return uint64_t{1} << i; };
  // From-variables free in `x`, as a bitmask over the first `upto`
  // levels (a range sees only the variables before it; a name of a later
  // level there is an outer variable).
  auto vars_of = [&](const ExprPtr& x, size_t upto) {
    uint64_t m = 0;
    VarSet free = FreeVars(x);
    for (size_t i = 0; i < upto; ++i) {
      if (HasVar(free, ch.vars[i])) m |= bit(i);
    }
    return m;
  };

  struct Conjunct {
    ExprPtr expr;
    uint64_t vars;
    bool safe;
    size_t block = 0;
  };
  std::vector<Conjunct> conjuncts;
  for (const ExprPtr& c : ch.conjuncts) {
    conjuncts.push_back({c, vars_of(c, k), CannotRaisePred(c)});
  }

  // Independent ranges, grouped by the conjuncts that link them.
  uint64_t joinable = 0;
  for (size_t i = 0; i < k; ++i) {
    if (vars_of(ch.ranges[i], i) == 0 && CannotRaiseRange(ch.ranges[i])) {
      joinable |= bit(i);
    }
  }
  std::vector<size_t> parent(k);
  std::iota(parent.begin(), parent.end(), 0);
  for (const Conjunct& c : conjuncts) {
    if (!c.safe || std::popcount(c.vars) < 2 || (c.vars & ~joinable) != 0) {
      continue;
    }
    size_t first = static_cast<size_t>(std::countr_zero(c.vars));
    for (size_t i = first + 1; i < k; ++i) {
      if ((c.vars & bit(i)) != 0) parent[Root(parent, i)] = Root(parent, first);
    }
  }

  // Blocks: join trees first (by first member), then every other range
  // in from-clause order.
  struct Block {
    std::vector<size_t> members;
    bool join = false;
  };
  std::vector<Block> blocks;
  std::vector<size_t> block_of(k, SIZE_MAX);
  for (size_t i = 0; i < k; ++i) {
    if ((joinable & bit(i)) == 0 || block_of[i] != SIZE_MAX) continue;
    Block b;
    for (size_t j = i; j < k; ++j) {
      if ((joinable & bit(j)) != 0 && Root(parent, j) == Root(parent, i)) {
        b.members.push_back(j);
      }
    }
    if (b.members.size() < 2) continue;
    b.join = true;
    for (size_t m : b.members) block_of[m] = blocks.size();
    blocks.push_back(std::move(b));
  }
  const bool any_join = !blocks.empty();
  for (size_t i = 0; i < k; ++i) {
    if (block_of[i] != SIZE_MAX) continue;
    block_of[i] = blocks.size();
    blocks.push_back(Block{{i}, false});
  }

  // Each conjunct goes to the lowest block binding all its variables;
  // one that may raise stays innermost.
  bool moved = false;
  for (Conjunct& c : conjuncts) {
    c.block = blocks.size() - 1;
    if (c.safe) {
      c.block = 0;
      for (size_t i = 0; i < k; ++i) {
        if ((c.vars & bit(i)) != 0) c.block = std::max(c.block, block_of[i]);
      }
    }
    moved = moved || c.block != blocks.size() - 1;
  }
  if (!any_join && !moved) return nullptr;

  // A join block binds a fresh t; downstream of it, xi reads t.xi. The
  // join predicates bind (t, u).
  std::vector<std::string> binder(blocks.size());
  std::vector<ExprPtr> taken = {e};
  for (size_t b = 0; b < blocks.size(); ++b) {
    binder[b] = ch.vars[blocks[b].members[0]];
    if (!blocks[b].join) continue;
    binder[b] = FreshVar("t", taken);
    taken.push_back(Expr::Var(binder[b]));
  }
  const std::string u = any_join ? FreshVar("u", taken) : "";
  std::vector<ExprPtr> ref(k);
  for (size_t i = 0; i < k; ++i) {
    ref[i] = blocks[block_of[i]].join
                 ? Expr::Access(Expr::Var(binder[block_of[i]]), ch.vars[i])
                 : Expr::Var(ch.vars[i]);
  }
  auto rebind = [&](ExprPtr x, uint64_t vars) {
    for (size_t i = 0; i < k; ++i) {
      if ((vars & bit(i)) != 0 && ref[i]->kind() != ExprKind::kVar) {
        x = Substitute(x, ch.vars[i], ref[i]);
      }
    }
    return x;
  };
  auto select_on = [](const std::string& v, std::vector<ExprPtr> preds,
                      ExprPtr in) {
    return preds.empty() ? in
                         : Expr::Select(v, Expr::AndAll(preds), std::move(in));
  };

  std::vector<ExprPtr> block_expr(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    const Block& blk = blocks[b];
    const std::string& t = binder[b];
    if (!blk.join) {
      size_t i = blk.members[0];
      std::vector<ExprPtr> preds;
      for (const Conjunct& c : conjuncts) {
        if (c.block == b) preds.push_back(rebind(c.expr, c.vars));
      }
      block_expr[b] = select_on(ch.vars[i], std::move(preds),
                                rebind(ch.ranges[i], vars_of(ch.ranges[i], i)));
      continue;
    }
    // Leaves: one-variable conjuncts (and variable-free ones, on the
    // first member) filter the range below its (xi = xi) wrap.
    auto leaf = [&](size_t m) {
      std::vector<ExprPtr> preds;
      for (const Conjunct& c : conjuncts) {
        if (c.block != b || !c.safe || std::popcount(c.vars) > 1) continue;
        if (c.vars == bit(m) || (c.vars == 0 && m == blk.members[0])) {
          preds.push_back(c.expr);
        }
      }
      const std::string& v = ch.vars[m];
      return Expr::Map(v, Expr::TupleConstruct({v}, {Expr::Var(v)}),
                       select_on(v, std::move(preds), ch.ranges[m]));
    };
    // Left-deep: the next member is the first one a conjunct links to
    // the joined set (or, failing that, the first one left).
    uint64_t acc = bit(blk.members[0]);
    ExprPtr tree = leaf(blk.members[0]);
    std::vector<bool> placed(conjuncts.size(), false);
    std::vector<size_t> rest(blk.members.begin() + 1, blk.members.end());
    while (!rest.empty()) {
      size_t pick = 0;
      for (size_t r = 0; r < rest.size(); ++r) {
        bool linked = false;
        for (const Conjunct& c : conjuncts) {
          linked = linked || (c.block == b && c.safe &&
                              (c.vars & bit(rest[r])) != 0 &&
                              (c.vars & ~(acc | bit(rest[r]))) == 0 &&
                              std::popcount(c.vars) > 1);
        }
        if (linked) {
          pick = r;
          break;
        }
      }
      size_t m = rest[pick];
      rest.erase(rest.begin() + static_cast<long>(pick));
      std::vector<ExprPtr> preds;
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        const Conjunct& c = conjuncts[ci];
        if (placed[ci] || c.block != b || !c.safe ||
            std::popcount(c.vars) < 2 ||
            (c.vars & ~(acc | bit(m))) != 0) {
          continue;
        }
        placed[ci] = true;
        ExprPtr p = c.expr;
        for (size_t i = 0; i < k; ++i) {
          if ((c.vars & bit(i)) == 0) continue;
          p = Substitute(p, ch.vars[i],
                         Expr::Access(Expr::Var(i == m ? u : t), ch.vars[i]));
        }
        preds.push_back(p);
      }
      tree = Expr::Join(tree, leaf(m), t, u, Expr::AndAll(preds));
      acc |= bit(m);
    }
    // Conjuncts that may raise filter the join's output, where the
    // naive plan evaluated them (pushdown leaves them there).
    std::vector<ExprPtr> top;
    for (const Conjunct& c : conjuncts) {
      if (c.block == b && !c.safe) top.push_back(rebind(c.expr, c.vars));
    }
    block_expr[b] = select_on(t, std::move(top), tree);
  }

  // Reassemble: the body over the innermost block, then one ⋃∘α per
  // enclosing block.
  const size_t last = blocks.size() - 1;
  ExprPtr body = ch.body != nullptr ? rebind(ch.body, vars_of(ch.body, k))
                                    : ref[k - 1];
  ExprPtr out = body->kind() == ExprKind::kVar && body->name() == binder[last]
                    ? block_expr[last]
                    : Expr::Map(binder[last], body, block_expr[last]);
  for (size_t b = last; b-- > 0;) {
    out = Expr::Flatten(Expr::Map(binder[b], out, block_expr[b]));
  }
  ctx.Note(any_join ? "Rule2-MapNestingToJoin" : "Rule2-PlaceConjuncts", e);
  return out;
}

}  // namespace rewrite_internal
}  // namespace n2j
