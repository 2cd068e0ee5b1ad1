// Flight-recorder coverage (ISSUE 10): JSONL round-trip through the
// strict RFC 8259 reader, ring-buffer wraparound, exact append counts
// under concurrent writers, one-record-per-Run through the engine, and
// the normalized query hash.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "obs/querylog.h"
#include "tests/test_util.h"

namespace n2j {
namespace obs {
namespace {

QueryLogRecord SampleRecord() {
  QueryLogRecord r;
  r.query_hash = 0xdeadbeefcafef00dULL;
  // Every escape class the writer must survive: quote, backslash,
  // newline, a control byte, multi-byte UTF-8.
  r.query = "select s.sname /* \"q\\uote\" \n \x01 caf\xc3\xa9 */";
  r.error = "";
  r.strategy = "cost";
  r.backend = "shredded";
  r.threads = 4;
  r.compiled = false;
  r.wall_ms = 12.345678;
  r.translate_ms = 0.125;
  r.rewrite_ms = 1.5;
  r.plan_ms = 0.375;
  r.eval_ms = 10.25;
  r.rows_out = 42;
  r.stats.tuples_scanned = 1000;
  r.stats.hash_probes = 77;
  r.stats.joins_hash = 3;
  r.stats.interp_fallback_evals = 5;
  r.roots.push_back(RootEstimate{"semijoin [hash keys=1]", 120.0, 100, 1.2});
  r.max_q = 1.2;
  return r;
}

TEST(QueryLogRecord, JsonRoundTripsThroughStrictReader) {
  QueryLogRecord r = SampleRecord();
  std::string line = r.ToJson();

  // The line must be a valid RFC 8259 document on its own, whose query
  // decodes byte for byte.
  JsonValue doc;
  std::string query;
  ASSERT_TRUE(ParseJson(line, &doc)) << line;
  EXPECT_TRUE(doc.Find("query") && doc.Get("query", &query));
  EXPECT_EQ(query, r.query);

  QueryLogRecord back;
  ASSERT_TRUE(QueryLogRecord::FromJson(line, &back)) << line;
  EXPECT_EQ(back.query_hash, r.query_hash);
  EXPECT_EQ(back.query, r.query);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.strategy, r.strategy);
  EXPECT_EQ(back.backend, r.backend);
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_EQ(back.compiled, r.compiled);
  EXPECT_DOUBLE_EQ(back.wall_ms, 12.3457);  // %.6g writer precision
  EXPECT_DOUBLE_EQ(back.translate_ms, r.translate_ms);
  EXPECT_DOUBLE_EQ(back.rewrite_ms, r.rewrite_ms);
  EXPECT_DOUBLE_EQ(back.plan_ms, r.plan_ms);
  EXPECT_DOUBLE_EQ(back.eval_ms, r.eval_ms);
  EXPECT_EQ(back.rows_out, r.rows_out);
  EXPECT_EQ(back.stats.Compact(), r.stats.Compact());
  EXPECT_EQ(back.fallbacks(), r.fallbacks());
  ASSERT_EQ(back.roots.size(), 1u);
  EXPECT_EQ(back.roots[0].op, r.roots[0].op);
  EXPECT_DOUBLE_EQ(back.roots[0].est, 120.0);
  EXPECT_EQ(back.roots[0].actual, 100u);
  EXPECT_DOUBLE_EQ(back.max_q, 1.2);
}

// The writer's bytes for a fixed record, pinned before it moved onto the
// shared JSON writer (common/json.h).
TEST(QueryLogRecord, ToJsonMatchesGoldenLine) {
  EXPECT_EQ(
      SampleRecord().ToJson(),
      R"({"id":0,"hash":"deadbeefcafef00d",)"
      R"("query":"select s.sname /* \"q\\uote\" \n \u0001 caf)"
      "\xc3\xa9" R"( */",)"
      R"("error":"","strategy":"cost","backend":"shredded","threads":4,)"
      R"("compiled":false,"wall_ms":12.3457,"translate_ms":0.125,)"
      R"("rewrite_ms":1.5,"plan_ms":0.375,"eval_ms":10.25,"rows_out":42,)"
      R"("max_q":1.2,"stats":{"tuples_scanned":1000,"predicate_evals":0,)"
      R"("hash_inserts":0,"hash_probes":77,"set_sorted_rows":0,)"
      R"("index_probes":0,"pnhl_partitions":0,"derefs":0,)"
      R"("nodes_evaluated":0,"compiled_evals":0,"interp_fallback_evals":5,)"
      R"("joins_nested_loop":0,"joins_hash":3,"joins_index":0,)"
      R"("joins_membership":0,"vec_pipelines":0,"vec_fallbacks":0},)"
      R"("roots":[{"op":"semijoin [hash keys=1]","est":120,"actual":100,)"
      R"("q":1.2}]})");
}

TEST(QueryLogRecord, ParsesLinesWithTheRetiredBatchKeys) {
  // A line as written before the batch executor and the sort-merge join
  // were removed: it carries "batch" and "vectorized" keys and the
  // "vec_batches", "joins_sortmerge" and "rows_sorted" counters that the
  // record no longer has. The reader skips them and keeps the rest.
  const std::string line =
      R"({"id":7,"hash":"0123456789abcdef",)"
      R"("query":"select p.pname from p in PART","error":"",)"
      R"("strategy":"cost","backend":"shredded","threads":2,"batch":64,)"
      R"("compiled":true,"vectorized":true,"wall_ms":1.5,)"
      R"("rewrite_ms":0.25,"eval_ms":1,"rows_out":40,"max_q":0,)"
      R"("stats":{"tuples_scanned":40,"predicate_evals":41,)"
      R"("hash_inserts":42,"hash_probes":43,"rows_sorted":5,)"
      R"("set_sorted_rows":44,"index_probes":45,"pnhl_partitions":46,)"
      R"("derefs":47,"nodes_evaluated":48,"compiled_evals":49,)"
      R"("interp_fallback_evals":3,"joins_nested_loop":50,"joins_hash":51,)"
      R"("joins_sortmerge":1,"joins_index":52,"joins_membership":53,)"
      R"("vec_batches":1,"vec_pipelines":1,"vec_fallbacks":0},)"
      R"("roots":[],"extents":[]})";
  QueryLogRecord r;
  ASSERT_TRUE(QueryLogRecord::FromJson(line, &r));
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.query_hash, 0x0123456789abcdefULL);
  EXPECT_EQ(r.query, "select p.pname from p in PART");
  EXPECT_EQ(r.backend, "shredded");
  EXPECT_EQ(r.threads, 2);
  EXPECT_TRUE(r.compiled);
  EXPECT_DOUBLE_EQ(r.wall_ms, 1.5);
  EXPECT_EQ(r.rows_out, 40u);
  // Every counter the record still has keeps its value.
  EvalStats want;
  want.tuples_scanned = 40;
  want.predicate_evals = 41;
  want.hash_inserts = 42;
  want.hash_probes = 43;
  want.set_sorted_rows = 44;
  want.index_probes = 45;
  want.pnhl_partitions = 46;
  want.derefs = 47;
  want.nodes_evaluated = 48;
  want.compiled_evals = 49;
  want.interp_fallback_evals = 3;
  want.joins_nested_loop = 50;
  want.joins_hash = 51;
  want.joins_index = 52;
  want.joins_membership = 53;
  want.vec_pipelines = 1;
  EXPECT_EQ(r.stats, want) << r.stats.ToString();
  EXPECT_EQ(r.fallbacks(), 3u);
  // Written back, the line has none of the retired keys.
  const std::string again = r.ToJson();
  for (const char* key : {"\"batch\"", "\"vectorized\"", "vec_batches",
                          "joins_sortmerge", "rows_sorted"}) {
    EXPECT_EQ(again.find(key), std::string::npos) << key << "\n" << again;
  }
}

TEST(QueryLogRecord, ParsesLinesWithoutTranslateAndPlanTimes) {
  // A line as written before Run timed translation and planning.
  const std::string line =
      R"({"id":3,"hash":"00000000000000ff","query":"select 1","error":"",)"
      R"("strategy":"cost","backend":"nested","threads":1,"compiled":true,)"
      R"("wall_ms":2,"rewrite_ms":0.5,"eval_ms":1,"rows_out":0,"max_q":0,)"
      R"("stats":{},"roots":[],"extents":[]})";
  QueryLogRecord r;
  ASSERT_TRUE(QueryLogRecord::FromJson(line, &r));
  EXPECT_EQ(r.id, 3u);
  EXPECT_DOUBLE_EQ(r.wall_ms, 2.0);
  EXPECT_DOUBLE_EQ(r.rewrite_ms, 0.5);
  EXPECT_DOUBLE_EQ(r.eval_ms, 1.0);
  EXPECT_EQ(r.translate_ms, 0.0);
  EXPECT_EQ(r.plan_ms, 0.0);
}

TEST(QueryLogRecord, FromJsonRejectsMalformedInput) {
  QueryLogRecord out;
  EXPECT_FALSE(QueryLogRecord::FromJson("", &out));
  EXPECT_FALSE(QueryLogRecord::FromJson("{", &out));
  EXPECT_FALSE(QueryLogRecord::FromJson("[]", &out));
  EXPECT_FALSE(QueryLogRecord::FromJson("{\"id\":1} trailing", &out));
  EXPECT_FALSE(QueryLogRecord::FromJson("{\"query\":\"unterminated}", &out));
}

TEST(QueryLogRecord, FromJsonRejectsMalformedFields) {
  // Malformed numbers, negative or oversized integers, hashes that are
  // not 16 hex digits, and known fields of the wrong type.
  const char* const lines[] = {
      R"({"id":-})",
      R"({"id":1.2.3})",
      R"({"id":+5})",
      R"({"id":1e})",
      R"({"id":--7})",
      R"({"id":-5})",
      R"({"id":1.5})",
      R"({"id":18446744073709551616})",
      R"({"hash":"-1"})",
      R"({"hash":"zz"})",
      R"({"hash":"0123"})",
      R"({"hash":"0123456789abcdef0"})",
      R"({"hash":5})",
      R"({"query":5})",
      R"({"threads":-1})",
      R"({"threads":4294967296})",
      R"({"compiled":"yes"})",
      R"({"wall_ms":"1"})",
      R"({"rows_out":-1})",
      R"({"stats":[]})",
      R"({"stats":{"derefs":1.5}})",
      R"({"stats":{"derefs":-1}})",
      R"({"roots":{}})",
      R"({"roots":[{"op":1}]})",
      R"({"roots":[{"actual":-1}]})",
  };
  for (const char* line : lines) {
    QueryLogRecord out;
    EXPECT_FALSE(QueryLogRecord::FromJson(line, &out)) << line;
  }
  // Integers read exactly, above 2^53 and up to UINT64_MAX.
  QueryLogRecord out;
  ASSERT_TRUE(QueryLogRecord::FromJson(
      R"({"id":9007199254740993,"hash":"FFFFFFFFFFFFFFFE",)"
      R"("stats":{"derefs":18446744073709551615}})",
      &out));
  EXPECT_EQ(out.id, 9007199254740993u);
  EXPECT_EQ(out.query_hash, 0xfffffffffffffffeULL);
  EXPECT_EQ(out.stats.derefs, UINT64_MAX);
}

TEST(QueryLogRecord, FromJsonRejectsDeepNesting) {
  // n2j_logcat feeds FromJson lines from outside the program. A line
  // nested a million levels deep must be rejected, not overflow the
  // reader's stack.
  std::string deep = "{\"id\":" + std::string(1000000, '[');
  QueryLogRecord out;
  EXPECT_FALSE(QueryLogRecord::FromJson(deep, &out));
  std::string closed = "{\"id\":" + std::string(1000, '[') +
                       std::string(1000, ']') + "}";
  EXPECT_FALSE(QueryLogRecord::FromJson(closed, &out));
  // Unknown keys nested a few levels below the record still load.
  ASSERT_TRUE(QueryLogRecord::FromJson(
      R"({"id":5,"future":[[{"k":[[1]]}]],"roots":[]})", &out));
  EXPECT_EQ(out.id, 5u);
}

TEST(QueryLog, QErrorClampsAndIsSymmetric) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(10, 5), 2.0);
  EXPECT_DOUBLE_EQ(QError(5, 10), 2.0);
  // Zeros clamp to 1 instead of dividing.
  EXPECT_DOUBLE_EQ(QError(0, 100), 100.0);
  EXPECT_DOUBLE_EQ(QError(100, 0), 100.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
}

TEST(QueryLog, RingWraparoundKeepsNewestRecords) {
  QueryLog log(8);
  for (int i = 0; i < 20; ++i) {
    QueryLogRecord r;
    r.query = "q" + std::to_string(i);
    log.Append(std::move(r));
  }
  EXPECT_EQ(log.total_appended(), 20u);
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Ids 12..19 survive, oldest first.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].id, 12 + i);
    EXPECT_EQ(snap[i].query, "q" + std::to_string(12 + i));
  }
  // last_n trims from the old end.
  std::vector<QueryLogRecord> last3 = log.Snapshot(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].id, 17u);
  EXPECT_EQ(last3[2].id, 19u);
}

TEST(QueryLog, ConcurrentWritersAppendExactly) {
  // mt4 exactness: the fetch_add sequence counter makes append counts
  // exact under any interleaving, and every surviving slot holds a
  // complete record (per-slot mutex — no torn writes).
  QueryLog log(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryLogRecord r;
        r.query = "w" + std::to_string(t) + "-" + std::to_string(i);
        r.wall_ms = 1.0;
        log.Append(std::move(r));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(log.total_appended(),
            static_cast<uint64_t>(kThreads * kPerThread));
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 64u);
  // Ids are unique, ascending, and all from the newest window.
  for (size_t i = 0; i < snap.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snap[i - 1].id, snap[i].id);
    }
    EXPECT_GE(snap[i].id, static_cast<uint64_t>(kThreads * kPerThread - 64));
    EXPECT_FALSE(snap[i].query.empty());
  }
}

TEST(QueryLog, EngineAppendsOneRecordPerRun) {
  std::unique_ptr<Database> db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  QueryLog& qlog = QueryLog::Global();
  uint64_t before = qlog.total_appended();

  ASSERT_TRUE(engine.Run("select s.sname from s in SUPPLIER").ok());
  EXPECT_EQ(qlog.total_appended(), before + 1);

  // Errors are recorded too, with a non-empty error field.
  ASSERT_FALSE(engine.Run("select nonsense !!").ok());
  EXPECT_EQ(qlog.total_appended(), before + 2);
  std::vector<QueryLogRecord> snap = qlog.Snapshot(1);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_FALSE(snap[0].error.empty());
  EXPECT_EQ(snap[0].query, "select nonsense !!");

  // Disabled appends are dropped entirely.
  qlog.set_enabled(false);
  ASSERT_TRUE(engine.Run("select s.sname from s in SUPPLIER").ok());
  EXPECT_EQ(qlog.total_appended(), before + 2);
  qlog.set_enabled(true);
}

// Run times its four phases one after another inside its own wall time,
// so they never add up to more than the wall time, whether that is
// taken around Run or recorded in the flight recorder.
TEST(QueryLog, PhaseTimesAddUpToAtMostTheWallTime) {
  std::unique_ptr<Database> db = testutil::SmallSupplierDb();
  PlannerOptions cost;
  cost.strategy = PlanStrategy::kCost;
  for (PlannerOptions popts : {PlannerOptions(), cost}) {
    SCOPED_TRACE(PlanStrategyName(popts.strategy));
    QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(), popts);
    int64_t t0 = MonotonicNanos();
    Result<QueryReport> r = engine.Run(
        "select s.sname from s in SUPPLIER where "
        "exists x in s.parts : exists p in PART : x.pid = p.pid");
    double wall_ms = static_cast<double>(MonotonicNanos() - t0) / 1e6;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->translate_ms, 0.0);
    EXPECT_GT(r->rewrite_ms, 0.0);
    EXPECT_GT(r->eval_ms, 0.0);
    if (popts.strategy == PlanStrategy::kCost) {
      EXPECT_GT(r->plan_ms, 0.0);
    } else {
      EXPECT_EQ(r->plan_ms, 0.0);
    }
    double phases = r->translate_ms + r->rewrite_ms + r->plan_ms + r->eval_ms;
    EXPECT_LE(phases, wall_ms);

    std::vector<QueryLogRecord> last = QueryLog::Global().Snapshot(1);
    ASSERT_EQ(last.size(), 1u);
    const QueryLogRecord& rec = last[0];
    EXPECT_EQ(rec.translate_ms, r->translate_ms);
    EXPECT_EQ(rec.rewrite_ms, r->rewrite_ms);
    EXPECT_EQ(rec.plan_ms, r->plan_ms);
    EXPECT_EQ(rec.eval_ms, r->eval_ms);
    EXPECT_LE(rec.translate_ms + rec.rewrite_ms + rec.plan_ms + rec.eval_ms,
              rec.wall_ms);
    EXPECT_LE(rec.wall_ms, wall_ms);
  }
}

TEST(QueryLog, HashNormalizesOverFormatting) {
  std::unique_ptr<Database> db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  QueryLog& qlog = QueryLog::Global();

  ASSERT_TRUE(
      engine.Run("select s.sname from s in SUPPLIER where s.sname = \"s1\"")
          .ok());
  ASSERT_TRUE(engine
                  .Run("select   s.sname\nfrom s in SUPPLIER\n"
                       "where s.sname = \"s1\"")
                  .ok());
  std::vector<QueryLogRecord> last2 = qlog.Snapshot(2);
  ASSERT_EQ(last2.size(), 2u);
  // Formatting differs, the translated algebra (and so the hash) doesn't.
  EXPECT_NE(last2[0].query, last2[1].query);
  EXPECT_EQ(last2[0].query_hash, last2[1].query_hash);
  EXPECT_NE(last2[0].query_hash, 0u);
}

TEST(QueryLog, JsonlDumpParsesLineByLine) {
  QueryLog log(16);
  for (int i = 0; i < 5; ++i) {
    QueryLogRecord r = SampleRecord();
    r.query += " #" + std::to_string(i);
    log.Append(std::move(r));
  }
  std::string doc = log.ToJsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < doc.size()) {
    size_t end = doc.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // every record newline-terminated
    std::string line = doc.substr(start, end - start);
    QueryLogRecord back;
    EXPECT_TRUE(QueryLogRecord::FromJson(line, &back)) << line;
    EXPECT_EQ(back.id, lines);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 5u);
}

}  // namespace
}  // namespace obs
}  // namespace n2j
