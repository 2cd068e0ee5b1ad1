// The rewrite driver: the paper's priority strategy (Section 4), one walk
// per round.
//
// The rules form stages, in priority order:
//
//   simplify    the translator's σ/α compositions fused away, constants
//               folded (from-clause composition removal);
//   hoist       uncorrelated subqueries become let-bound constants;
//   quantifier  Tables 1 and 2, range merging, independent-conjunct
//               extraction, quantifier exchange (base tables leftmost);
//   negation    ∀ over base tables to ¬∃¬, negation normal form — after
//               the exchange has seen the ∀∀ pairs;
//   Rule 1      quantifiers over base tables to semi-/antijoins;
//   Rule 2      from-clause chains to joins;
//   unnest      set-valued attributes unnested (option 1);
//   grouping    the nestjoin, or the guarded grouping plan;
//   pushdown    selections, then join-predicate conjuncts, pushed below
//               the joins the stages before made.
//
// A round is one walk of one stage. At each node the walk tries the
// stage's enabled rules in order until none fires, and it walks a
// replacement's children before it tries the rules at the replacement
// again, so one bottom-up walk leaves its stage at a fixpoint. Two stages
// walk differently. Rule 2 walks top-down, so a whole from-clause chain
// is matched before any suffix of it could be. Hoisting lifts one
// subquery per iterator per round: the stages after it see the other
// uncorrelated subqueries in place first, where Tables 1/2, Rule 1 or the
// nestjoin may unnest them (a let-bound operand stops the nestjoin).
//
// Rounds take the stages in order; every stage has walked the whole tree
// before the next one starts, so no nestjoin fires before every
// relational rule has been tried everywhere. After the last stage the
// rounds start over if anything fired; the rewrite ends when a pass over
// all stages fires nothing.
//
// A walk does no work for a node that does not change. Each node the
// driver has finished has an entry, keyed by its address, in a table
// local to the rewrite (Expr stays immutable and shared): the kinds of
// node in its subtree, and the stages at whose fixpoint the subtree is.
// A walk skips a subtree that is at its stage's fixpoint, or that holds
// no node kind the stage's rules fire at. A node that changes is a new
// node with no entry. Replaced nodes are retired, not freed, until the
// rewrite ends, so no address is reused while its entry stands.

#include "rewrite/rewriter.h"

#include "obs/metrics.h"
#include "rewrite/rules_internal.h"

namespace n2j {

namespace rewrite_internal {

namespace {

using Rule = ExprPtr (*)(const ExprPtr&, RewriteContext&);

/// A rule firing this many times at one node in one walk is a cycle.
constexpr int kMaxSiteFirings = 64;

constexpr uint32_t KindBit(ExprKind k) {
  return uint32_t{1} << static_cast<unsigned>(k);
}

constexpr uint32_t KindBits(std::initializer_list<ExprKind> kinds) {
  uint32_t bits = 0;
  for (ExprKind k : kinds) bits |= KindBit(k);
  return bits;
}

/// In a subtree's kinds: the subtree holds a replacement its stage has
/// not tried again, so it is not at the stage's fixpoint.
constexpr uint32_t kUnsettled = uint32_t{1} << 31;
static_assert(static_cast<unsigned>(ExprKind::kDifference) < 31,
              "every ExprKind needs a bit below kUnsettled");

constexpr uint32_t kJoinKinds =
    KindBits({ExprKind::kJoin, ExprKind::kSemiJoin, ExprKind::kAntiJoin,
              ExprKind::kNestJoin});

/// What the driver knows about a finished node.
struct NodeInfo {
  uint32_t kinds = 0;  // KindBit of every node in the subtree
  uint16_t clean = 0;  // bit s: no stage-s rule fires in the subtree
};

/// Node address → NodeInfo; open addressing with linear probing, kept at
/// most half full.
class NodeTable {
 public:
  NodeTable() : slots_(256) {}

  const NodeInfo* Find(const Expr* e) const {
    for (size_t i = Home(e);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.node == e) return &s.info;
      if (s.node == nullptr) return nullptr;
    }
  }

  void Add(const Expr* e, uint32_t kinds, uint16_t clean) {
    if (2 * (used_ + 1) > slots_.size()) Grow();
    for (size_t i = Home(e);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (s.node == e) {
        s.info.clean |= clean;
        return;
      }
      if (s.node == nullptr) {
        s = {e, {kinds, clean}};
        ++used_;
        return;
      }
    }
  }

 private:
  struct Slot {
    const Expr* node = nullptr;
    NodeInfo info;
  };

  size_t Home(const Expr* e) const {
    uint64_t h = (reinterpret_cast<uintptr_t>(e) >> 4) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h >> 32) & (slots_.size() - 1);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    used_ = 0;
    for (const Slot& s : old) {
      if (s.node != nullptr) Add(s.node, s.info.kinds, s.info.clean);
    }
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
};

/// How a stage walks the tree.
enum class Walk : uint8_t {
  kBottomUp,      // a replacement is walked again: one walk reaches the
                  // stage's fixpoint
  kOncePerRound,  // bottom-up; a replacement waits for the next round
  kTopDown,       // the rules at a node before its children
};

struct Stage {
  Walk walk = Walk::kBottomUp;
  Rule rules[4] = {};
  int num_rules = 0;
  /// The node kinds the stage's rules fire at, and whether each of them
  /// needs a base table below the site: a subtree without them is
  /// skipped.
  uint32_t sites = 0;
  bool needs_table = false;

  bool MayFireIn(uint32_t kinds) const {
    return (kinds & sites) != 0 &&
           (!needs_table || (kinds & KindBit(ExprKind::kGetTable)) != 0);
  }
};

class Driver {
 public:
  Driver(RewriteContext& ctx, RewriteResult* result)
      : ctx_(ctx), result_(result) {
    const RewriteOptions& o = ctx.options;
    auto on = [](bool enabled, Rule r) { return enabled ? r : nullptr; };
    AddStage(Walk::kBottomUp,
             KindBits({ExprKind::kSelect, ExprKind::kMap, ExprKind::kUnary,
                       ExprKind::kBinary, ExprKind::kQuantifier,
                       ExprKind::kLet, ExprKind::kFlatten}),
             false, {SimplifyNode});
    AddStage(Walk::kOncePerRound,
             KindBits({ExprKind::kSelect, ExprKind::kMap,
                       ExprKind::kQuantifier}),
             true, {on(o.enable_hoist, ApplyHoist)});
    AddStage(Walk::kBottomUp,
             KindBits({ExprKind::kUnary, ExprKind::kBinary,
                       ExprKind::kQuantifier}),
             false,
             {on(o.enable_setcmp, ApplySetCmp),
              on(o.enable_quantifier, MergeRange),
              on(o.enable_quantifier, ExtractIndependent),
              on(o.enable_quantifier, Exchange)});
    AddStage(Walk::kBottomUp,
             KindBits({ExprKind::kUnary, ExprKind::kQuantifier}), false,
             {on(o.enable_quantifier, PushNegation)});
    AddStage(Walk::kBottomUp, KindBit(ExprKind::kSelect) | kJoinKinds, true,
             {on(o.enable_quantifier, ApplyRule1),
              on(o.enable_quantifier, ApplyRule1InJoinPred)});
    AddStage(Walk::kTopDown, KindBit(ExprKind::kFlatten), false,
             {on(o.enable_map_join, ApplyRule2)});
    AddStage(Walk::kBottomUp, KindBits({ExprKind::kProject, ExprKind::kMap}),
             true, {on(o.enable_unnest_attr, ApplyUnnestAttr)});
    AddStage(Walk::kBottomUp, KindBits({ExprKind::kSelect, ExprKind::kMap}),
             true, {on(o.grouping != GroupingMode::kNone, ApplyGrouping)});
    AddStage(Walk::kBottomUp, kJoinKinds, false,
             {on(o.enable_pushdown, ApplyPushdown)});
    AddStage(Walk::kBottomUp, kJoinKinds, false,
             {on(o.enable_pushdown, ApplyJoinPredPushdown)});
  }

  ExprPtr Run(ExprPtr e, int max_rounds) {
    int rounds = 0;
    bool fired_since_start = false;
    for (int s = 0; s < num_stages_;) {
      if (rounds == max_rounds) {
        NoteCap(std::to_string(rounds) + " rounds");
        break;
      }
      ++rounds;
      stage_ = &stages_[s];
      stage_bit_ = static_cast<uint16_t>(1u << s);
      fired_ = false;
      uint32_t kinds = 0;
      ExprPtr next = Visit(e, &kinds);
      if (next != nullptr) {
        retired_.push_back(std::move(e));
        e = std::move(next);
      }
      if (capped_) {
        NoteCap(std::to_string(kMaxSiteFirings) + " firings at one node");
        break;
      }
      fired_since_start = fired_since_start || fired_;
      if (++s == num_stages_ && fired_since_start) {
        s = 0;
        fired_since_start = false;
      }
    }
    return e;
  }

 private:
  /// Appends a stage of the enabled (non-null) rules, if any is.
  void AddStage(Walk walk, uint32_t sites, bool needs_table,
                std::initializer_list<Rule> rules) {
    Stage& s = stages_[num_stages_];
    for (Rule r : rules) {
      if (r != nullptr) s.rules[s.num_rules++] = r;
    }
    if (s.num_rules == 0) return;
    s.walk = walk;
    s.sites = sites;
    s.needs_table = needs_table;
    ++num_stages_;
  }

  /// The first rule of the stage that fires at `e`, or nullptr.
  ExprPtr Fire(const ExprPtr& e) {
    for (int i = 0; i < stage_->num_rules; ++i) {
      ExprPtr out = stage_->rules[i](e, ctx_);
      if (out != nullptr) {
        fired_ = true;
        return out;
      }
    }
    return nullptr;
  }

  /// True if the walk skips `e`: it has an entry (copied to `*kinds`)
  /// saying its subtree is at the stage's fixpoint or holds no site of
  /// the stage's rules.
  bool Settled(const Expr* e, uint32_t* kinds) const {
    const NodeInfo* info = nodes_.Find(e);
    if (info == nullptr) return false;
    *kinds = info->kinds;
    return (info->clean & stage_bit_) != 0 || !stage_->MayFireIn(info->kinds);
  }

  /// Walks `e` in the stage's direction. Returns the new node, or
  /// nullptr if `e` stays; sets `*kinds` to the result's subtree kinds.
  ExprPtr Visit(const ExprPtr& e, uint32_t* kinds) {
    ++result_->node_visits;
    if (Settled(e.get(), kinds)) return nullptr;
    return stage_->walk == Walk::kTopDown ? VisitTopDown(e, kinds)
                                          : VisitBottomUp(e, kinds);
  }

  /// Children first, then the rules at the node until none fires.
  ExprPtr VisitBottomUp(const ExprPtr& e, uint32_t* kinds) {
    ExprPtr cur = VisitChildren(e, kinds);
    for (int fired = 0;; ++fired) {
      const ExprPtr& node = cur != nullptr ? cur : e;
      if (fired == kMaxSiteFirings) {
        capped_ = true;
        return cur;
      }
      ExprPtr next = capped_ ? nullptr : Fire(node);
      if (next == nullptr) {
        if ((*kinds & kUnsettled) == 0) {
          nodes_.Add(node.get(), *kinds, stage_bit_);
        }
        return cur;
      }
      Retire(std::move(cur));
      cur = std::move(next);
      if (stage_->walk == Walk::kOncePerRound) {
        *kinds = ~uint32_t{0};  // unknown, and kUnsettled
        return cur;
      }
      if (Settled(cur.get(), kinds)) return cur;
      if (ExprPtr kids = VisitChildren(cur, kinds)) {
        Retire(std::move(cur));
        cur = std::move(kids);
      }
    }
  }

  /// The rules at the node until none fires, then its children. A node
  /// rebuilt over changed children is not at the fixpoint: the next
  /// round tries it again.
  ExprPtr VisitTopDown(const ExprPtr& e, uint32_t* kinds) {
    ExprPtr cur;
    for (int fired = 0; !capped_; ++fired) {
      if (fired == kMaxSiteFirings) {
        capped_ = true;
        break;
      }
      ExprPtr next = Fire(cur != nullptr ? cur : e);
      if (next == nullptr) break;
      Retire(std::move(cur));
      cur = std::move(next);
    }
    const ExprPtr& node = cur != nullptr ? cur : e;
    ExprPtr kids = VisitChildren(node, kinds);
    if (kids == nullptr) {
      nodes_.Add(node.get(), *kinds, stage_bit_);
      return cur;
    }
    Retire(std::move(cur));
    return kids;
  }

  /// Walks the children of `e`; sets `*kinds` to the subtree kinds of
  /// the result. Copies the children only once one of them changes;
  /// returns the rebuilt node, or nullptr if none changed.
  ExprPtr VisitChildren(const ExprPtr& e, uint32_t* kinds) {
    *kinds = KindBit(e->kind());
    const std::vector<ExprPtr>& kids = e->children();
    std::vector<ExprPtr> fresh;
    for (size_t i = 0; i < kids.size(); ++i) {
      uint32_t child_kinds = 0;
      ExprPtr nc = Visit(kids[i], &child_kinds);
      *kinds |= child_kinds;
      if (nc == nullptr) continue;
      if (fresh.empty()) fresh.assign(kids.begin(), kids.end());
      fresh[i] = std::move(nc);
    }
    return fresh.empty() ? nullptr : e->WithChildren(std::move(fresh));
  }

  /// Keeps a replaced node, and every node below it the table has an
  /// entry for, alive until the rewrite ends.
  void Retire(ExprPtr e) {
    if (e != nullptr) retired_.push_back(std::move(e));
  }

  void NoteCap(std::string why) {
    ctx_.Note("RoundCapReached", nullptr, std::move(why));
    obs::MetricsRegistry::Global()
        .GetCounter("n2j_rewrite_round_cap_total")
        .Add();
  }

  RewriteContext& ctx_;
  RewriteResult* result_;
  Stage stages_[10];
  int num_stages_ = 0;
  const Stage* stage_ = nullptr;
  uint16_t stage_bit_ = 0;
  bool fired_ = false;
  bool capped_ = false;
  NodeTable nodes_;
  std::vector<ExprPtr> retired_;
};

}  // namespace

RewriteResult DriveRewrite(const ExprPtr& e, const Schema& schema,
                           const Database* db, const RewriteOptions& options,
                           int max_rounds) {
  RewriteResult result;
  RewriteContext ctx{schema, db, options, &result.trace};
  result.expr = Driver(ctx, &result).Run(e, max_rounds);
  return result;
}

}  // namespace rewrite_internal

std::string RuleApplication::detail() const {
  return site != nullptr ? AlgebraStr(site) + suffix : suffix;
}

bool RewriteResult::Fired(const std::string& rule) const {
  for (const RuleApplication& a : trace) {
    if (a.rule == rule) return true;
  }
  return false;
}

std::string RewriteResult::TraceToString() const {
  std::string out;
  for (const RuleApplication& a : trace) {
    out += "  [" + a.rule + "] " + a.detail() + "\n";
  }
  return out;
}

Result<RewriteResult> Rewriter::Rewrite(const ExprPtr& e) const {
  return rewrite_internal::DriveRewrite(e, schema_, db_, options_,
                                        rewrite_internal::kMaxRewriteRounds);
}

}  // namespace n2j
