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

/// Minimal strict RFC 8259 reader: validates a full document and
/// collects every decoded string value/key. No dependency, no leniency —
/// a lenient parser would defeat the point of the JSON-shape tests
/// (chrome_trace_test.cc, querylog_test.cc) that use it.
class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  bool ParseDocument() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool ParseValue() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return ParseNumber();
    }
  }
  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"' || !ParseString()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < s_.size()) {
      unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        strings_.push_back(out);
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned int cp = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp += 10u + static_cast<unsigned>(h - 'a');
              } else if (h >= 'A' && h <= 'F') {
                cp += 10u + static_cast<unsigned>(h - 'A');
              } else {
                return false;
              }
            }
            // The library's writers only emit \u00xx for control bytes.
            if (cp > 0xFF) return false;
            out += static_cast<char>(cp);
            break;
          }
          default: return false;
        }
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
    return false;  // unterminated
  }
  bool ParseNumber() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::vector<std::string> strings_;
};

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
