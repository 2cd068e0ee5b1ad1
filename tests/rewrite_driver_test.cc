// The rewrite driver (rewrite/rewriter.cc): plans and traces of the
// paper's queries, the work the driver does for them, and its round cap.
//
// The golden plans and rendered traces below were produced by the
// pass-at-a-time rewriter the driver replaced (nine passes per round,
// a whole-tree comparison ending each round). The driver must keep them
// byte for byte.

#include <gtest/gtest.h>

#include "adl/printer.h"
#include "obs/metrics.h"
#include "rewrite/rules_internal.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::RewriteExpr;
using testutil::TranslateOrDie;

std::unique_ptr<Database> PaperDb() {
  SupplierPartConfig config;
  config.seed = 21;
  config.num_parts = 50;
  config.num_suppliers = 20;
  return MakeSupplierPartDatabase(config);
}

struct PaperGolden {
  const char* label;
  const char* oosql;
  const char* plan;
  const char* trace;  // RewriteResult::TraceToString()
  size_t node_visits;
};

const PaperGolden kPaperGoldens[] = {
    {"Q1",
     "select (sname = s.sname, pnames = select p.pname from p in PART "
     "where p[pid] in s.parts and p.color = \"red\") from s in SUPPLIER",
     "α[z : (sname = z.sname, pnames = z.ys)](SUPPLIER ⊣_{s,p : p[pid] ∈ "
     "s.parts ; p.pname ; ys} σ[p1 : p1.color = \"red\"](PART))",
     "  [NestJoinRewrite] α[p : p.pname](σ[p : p[pid] ∈ s.parts ∧ p.color = "
     "\"red\"](PART))\n"
     "  [PushJoinPredicate(right)] p1.color = \"red\"\n",
     167},
    {"Q2",
     "select d from d in (select e from e in DELIVERY "
     "where e.supplier.sname = \"s1\") where d.date > 940600",
     "σ[e : deref<Supplier>(e.supplier).sname = \"s1\" ∧ e.date > "
     "940600](DELIVERY)",
     "  [Simplify-IdentityMap] α[e : e](σ[e : "
     "deref<Supplier>(e.supplier).sname = \"s1\"](DELIVERY))\n"
     "  [Simplify-SelectFusion] σ[d : d.date > 940600](σ[e : "
     "deref<Supplier>(e.supplier).sname = \"s1\"](DELIVERY))\n"
     "  [Simplify-IdentityMap] α[d : d](σ[e : "
     "deref<Supplier>(e.supplier).sname = \"s1\" ∧ e.date > "
     "940600](DELIVERY))\n",
     57},
    {"Q3.1",
     "select s.sname from s in SUPPLIER where s.parts supseteq "
     "(select x from t in SUPPLIER, x in t.parts where t.sname = \"s1\")",
     "α[s : s.sname](let sub = ⋃(α[t : t.parts](σ[t : t.sname = "
     "\"s1\"](SUPPLIER))) in σ[s : s.parts ⊇ sub](SUPPLIER))",
     "  [Simplify-IdentityMap] α[x : x](σ[x : t.sname = \"s1\"](t.parts))\n"
     "  [HoistUncorrelated] ⋃(α[t : σ[x : t.sname = "
     "\"s1\"](t.parts)](SUPPLIER))\n"
     "  [Rule2-PlaceConjuncts] ⋃(α[t : σ[x : t.sname = "
     "\"s1\"](t.parts)](SUPPLIER))\n",
     145},
    {"Q3.2",
     "select d from d in DELIVERY where "
     "exists x in d.supply : x.part.color = \"red\"",
     "σ[d : ∃x ∈ d.supply · deref<Part>(x.part).color = \"red\"](DELIVERY)",
     "  [Simplify-IdentityMap] α[d : d](σ[d : ∃x ∈ d.supply · "
     "deref<Part>(x.part).color = \"red\"](DELIVERY))\n",
     48},
    {"Q4",
     "select s.eid from s in SUPPLIER where "
     "exists z in s.parts : not exists p in PART : z.pid = p.pid",
     "α[s : s.eid](μ_parts(SUPPLIER) ▷_{s1,p : s1[pid].pid = p.pid} PART)",
     "  [UnnestAttribute] σ[s : ∃z ∈ s.parts · ¬(∃p ∈ PART · z.pid = "
     "p.pid)](SUPPLIER)\n"
     "  [Rule1-AntiJoin] ¬(∃p ∈ PART · s1[pid].pid = p.pid)\n",
     161},
    {"Q5",
     "select s.sname from s in SUPPLIER where "
     "exists x in s.parts : exists p in PART : "
     "x.pid = p.pid and p.color = \"red\"",
     "α[s : s.sname](SUPPLIER ⋉_{s,p : ∃x ∈ s.parts · x.pid = p.pid} "
     "σ[p1 : p1.color = \"red\"](PART))",
     "  [ExchangeQuantifiers] ∃x ∈ s.parts · ∃p ∈ PART · x.pid = p.pid ∧ "
     "p.color = \"red\"\n"
     "  [ExtractIndependentConjuncts] ∃x ∈ s.parts · x.pid = p.pid ∧ "
     "p.color = \"red\"\n"
     "  [Rule1-SemiJoin] ∃p ∈ PART · p.color = \"red\" ∧ (∃x ∈ s.parts · "
     "x.pid = p.pid)\n"
     "  [PushJoinPredicate(right)] p1.color = \"red\"\n",
     161},
    {"Q6",
     "select (sname = s.sname, partssuppl = select p from p in PART "
     "where p[pid] in s.parts) from s in SUPPLIER",
     "α[z : (sname = z.sname, partssuppl = z.ys)](SUPPLIER ⊣_{s,p : p[pid] "
     "∈ s.parts ; ys} PART)",
     "  [Simplify-IdentityMap] α[p : p](σ[p : p[pid] ∈ s.parts](PART))\n"
     "  [NestJoinRewrite] σ[p : p[pid] ∈ s.parts](PART)\n",
     105},
};

TEST(RewriteDriverGolden, PaperQueriesKeepPlansAndTraces) {
  auto db = PaperDb();
  for (const PaperGolden& g : kPaperGoldens) {
    RewriteResult r = RewriteExpr(*db, TranslateOrDie(*db, g.oosql));
    EXPECT_EQ(AlgebraStr(r.expr), g.plan) << g.label;
    EXPECT_EQ(r.TraceToString(), g.trace) << g.label;
  }
}

// The driver's work, pinned: it enters each node of the seven queries
// a handful of times (the pass-at-a-time rewriter entered 3,665 nodes
// over the same trees, about 30 whole-tree walks per query).
TEST(RewriteDriverGolden, PaperQueriesNodeVisits) {
  auto db = PaperDb();
  size_t total = 0;
  for (const PaperGolden& g : kPaperGoldens) {
    RewriteResult r = RewriteExpr(*db, TranslateOrDie(*db, g.oosql));
    EXPECT_EQ(r.node_visits, g.node_visits) << g.label;
    total += r.node_visits;
  }
  EXPECT_LE(total, 1000u);
}

// Past its round bound the driver stops with a named trace entry and a
// registry counter, not a silent partial rewrite.
TEST(RewriteDriver, RoundCapIsNamed) {
  auto db = PaperDb();
  ExprPtr q1 = TranslateOrDie(*db, kPaperGoldens[0].oosql);
  obs::Counter& cap =
      obs::MetricsRegistry::Global().GetCounter("n2j_rewrite_round_cap_total");
  uint64_t before = cap.value();

  RewriteResult capped = rewrite_internal::DriveRewrite(
      q1, db->schema(), db.get(), RewriteOptions(), 1);
  ASSERT_FALSE(capped.trace.empty());
  EXPECT_EQ(capped.trace.back().rule, "RoundCapReached");
  EXPECT_EQ(capped.trace.back().detail(), "1 rounds");
  EXPECT_EQ(cap.value(), before + 1);

  RewriteResult full = RewriteExpr(*db, q1);
  EXPECT_FALSE(full.Fired("RoundCapReached"));
  EXPECT_EQ(cap.value(), before + 1);
}

}  // namespace
}  // namespace n2j
