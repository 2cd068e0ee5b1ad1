#ifndef N2J_TESTS_TEST_UTIL_H_
#define N2J_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adl/printer.h"
#include "core/engine.h"
#include "exec/eval.h"
#include "oosql/translate.h"
#include "rewrite/rewriter.h"
#include "storage/datagen.h"

namespace n2j {
namespace testutil {

/// A small deterministic supplier–part database for functional tests.
inline std::unique_ptr<Database> SmallSupplierDb() {
  SupplierPartConfig config;
  config.seed = 7;
  config.num_parts = 40;
  config.num_suppliers = 12;
  config.parts_per_supplier = 5;
  config.red_fraction = 0.3;
  config.match_fraction = 0.8;  // some dangling references
  config.num_deliveries = 10;
  return MakeSupplierPartDatabase(config);
}

/// Translates OOSQL text against `db`, aborting the test on failure.
inline ExprPtr TranslateOrDie(const Database& db, const std::string& text) {
  Translator tr(db.schema(), &db);
  Result<TypedExpr> typed = tr.TranslateString(text);
  EXPECT_TRUE(typed.ok()) << text << "\n" << typed.status().ToString();
  if (!typed.ok()) std::abort();
  return typed->expr;
}

/// Evaluates an ADL expression, aborting on failure.
inline Value EvalExpr(const Database& db, const ExprPtr& e,
                      EvalOptions opts = EvalOptions()) {
  Evaluator ev(db, opts);
  Result<Value> r = ev.Eval(e);
  EXPECT_TRUE(r.ok()) << AlgebraStr(e) << "\n" << r.status().ToString();
  if (!r.ok()) std::abort();
  return *r;
}

/// Rewrites with the given options, aborting on failure.
inline RewriteResult RewriteExpr(const Database& db, const ExprPtr& e,
                                 RewriteOptions opts = RewriteOptions()) {
  Rewriter rw(db.schema(), &db, opts);
  Result<RewriteResult> r = rw.Rewrite(e);
  EXPECT_TRUE(r.ok()) << AlgebraStr(e) << "\n" << r.status().ToString();
  if (!r.ok()) std::abort();
  return *r;
}

/// Asserts that the rewritten form of `e` evaluates to the same value as
/// the original (the core algebraic-equivalence property), and returns
/// the rewrite result for further inspection.
inline RewriteResult CheckEquivalence(const Database& db, const ExprPtr& e,
                                      RewriteOptions opts = RewriteOptions()) {
  Value before = EvalExpr(db, e);
  RewriteResult rewritten = RewriteExpr(db, e, opts);
  Value after = EvalExpr(db, rewritten.expr);
  EXPECT_EQ(before, after)
      << "original:  " << AlgebraStr(e) << "\n"
      << "rewritten: " << AlgebraStr(rewritten.expr) << "\n"
      << "trace:\n"
      << rewritten.TraceToString();
  return rewritten;
}

/// One checked-in fuzzer failure under tests/corpus/: the generated query
/// and the seed of the random tables it ran against.
struct CorpusCase {
  std::string file;
  uint64_t tables_seed = 0;
  std::string query;
};

/// Reads every tests/corpus/*.oosql file, sorted by file name. A file
/// holds a `# tables-seed: N` line, other `#` comments, and the query
/// text (its lines are joined with spaces).
inline std::vector<CorpusCase> LoadCorpus() {
  std::vector<CorpusCase> cases;
  for (const auto& entry :
       std::filesystem::directory_iterator(N2J_CORPUS_DIR)) {
    if (entry.path().extension() != ".oosql") continue;
    CorpusCase c;
    c.file = entry.path().filename().string();
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("# tables-seed:", 0) == 0) {
        c.tables_seed = std::strtoull(line.substr(14).c_str(), nullptr, 10);
      } else if (!line.empty() && line[0] != '#') {
        if (!c.query.empty()) c.query += ' ';
        c.query += line;
      }
    }
    cases.push_back(std::move(c));
  }
  std::sort(cases.begin(), cases.end(),
            [](const CorpusCase& a, const CorpusCase& b) {
              return a.file < b.file;
            });
  return cases;
}

/// True if the expression still has a base table below an iterator's
/// parameter expression (i.e. nested-loop residue). The paper's goal is
/// to make this false.
inline bool HasNestedBaseTable(const ExprPtr& e) {
  bool found = false;
  // Parameter expressions: bodies/preds of iterators.
  std::function<void(const ExprPtr&, bool)> walk = [&](const ExprPtr& n,
                                                       bool in_param) {
    if (n->kind() == ExprKind::kGetTable && in_param) {
      found = true;
      return;
    }
    for (size_t i = 0; i < n->num_children(); ++i) {
      bool param = in_param;
      switch (n->kind()) {
        case ExprKind::kMap:
        case ExprKind::kSelect:
          if (i == 1) param = true;
          break;
        case ExprKind::kQuantifier:
          if (i == 1) param = true;
          break;
        case ExprKind::kJoin:
        case ExprKind::kSemiJoin:
        case ExprKind::kAntiJoin:
          if (i == 2) param = true;
          break;
        case ExprKind::kNestJoin:
          if (i >= 2) param = true;
          break;
        default:
          break;
      }
      walk(n->child(i), param);
    }
  };
  walk(e, false);
  return found;
}

}  // namespace testutil
}  // namespace n2j

#endif  // N2J_TESTS_TEST_UTIL_H_
