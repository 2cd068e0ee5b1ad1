// Chrome trace escaping regression: operator span names carry free-form
// detail — predicate text with string literals, extent names,
// annotations — so ChromeTraceJson must escape per RFC 8259 or one
// hostile name invalidates the whole document. Pinned by a round trip:
// render a trace whose span detail holds every escape class, parse the
// document with the strict JSON reader (common/json.h, pinned on its own
// by json_test), and require the decoded name to reproduce the original
// bytes exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/engine.h"
#include "obs/chrome_trace.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "storage/datagen.h"

namespace n2j {
namespace {

// Parses a Chrome trace document and returns its event names, checking
// that every event carries the string `name` and `ph` and the integer
// `pid` and `tid` that trace_event needs.
std::vector<std::string> EventNames(const std::string& json) {
  std::vector<std::string> names;
  JsonValue doc;
  EXPECT_TRUE(ParseJson(json, &doc)) << json;
  const JsonValue* events = doc.Find("traceEvents");
  EXPECT_NE(events, nullptr) << json;
  if (events == nullptr) return names;
  for (const JsonValue& e : events->items) {
    std::string name, ph;
    uint64_t id = 0;
    EXPECT_TRUE(e.Find("name") && e.Find("ph") && e.Find("pid") &&
                e.Find("tid") && e.Get("name", &name) && e.Get("ph", &ph) &&
                e.Get("pid", &id) && e.Get("tid", &id))
        << "event " << names.size() << " lacks name/ph/pid/tid";
    names.push_back(name);
  }
  return names;
}

// Every escape class in one name: quote, backslash, the five short
// escapes, a sub-0x20 control byte, a DEL byte, and multi-byte UTF-8.
const char kHostile[] =
    "sel [p.name = \"a\\b\" \b\f\n\r\t \x01\x1f \x7f \xc3\xa9]";

TEST(ChromeTrace, HostileSpanNameRoundTrips) {
  TraceCollector tc;
  EvalStats zero;
  {
    OpSpan root(&tc, zero, "query");
    {
      OpSpan child(&tc, zero, "select");
      child.Annotate(kHostile);
      child.RowsOut(uint64_t{3});
    }
  }
  std::string json = ChromeTraceJson(tc);

  // The decoded span name must reproduce the hostile bytes exactly.
  std::string want = std::string("select [") + kHostile + "]";
  std::vector<std::string> names = EventNames(json);
  EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
      << "decoded names lost the hostile name:\n" << json;
}

TEST(ChromeTrace, TracedJoinQueryStaysValidJson) {
  // End to end: a real traced query whose plan carries join-key details
  // and per-span stats strings through the escaper; the whole document
  // must parse strictly.
  SupplierPartConfig config;
  config.num_parts = 40;
  config.num_suppliers = 10;
  std::unique_ptr<Database> db = MakeSupplierPartDatabase(config);
  TraceCollector tc;
  EvalOptions eopts;
  eopts.trace = &tc;
  QueryEngine engine(db.get(), RewriteOptions(), eopts);
  Result<QueryReport> r = engine.Run(
      "select (a = x.pname, b = y.pname) from x in PART, y in PART "
      "where x.price = y.price");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::string json = ChromeTraceJson(tc);

  // Span details made it into the document (the name carries the
  // "op [detail]" form the profile renderer uses).
  bool saw_detail = false;
  for (const std::string& name : EventNames(json)) {
    if (name.find(" [") != std::string::npos) saw_detail = true;
  }
  EXPECT_TRUE(saw_detail) << json;
}

// fclose is where a buffered write to a full disk fails; the trace and
// the query log must both report it, as they report a failed open.
TEST(ChromeTrace, WritesToAFullDeviceFail) {
  TraceCollector tc;
  EvalStats zero;
  { OpSpan root(&tc, zero, "query"); }
  EXPECT_FALSE(WriteChromeTrace(tc, "/nonexistent-dir/t.json").ok());
  if (std::FILE* f = std::fopen("/dev/full", "w")) {
    std::fclose(f);
  } else {
    GTEST_SKIP() << "no /dev/full";
  }
  EXPECT_FALSE(WriteChromeTrace(tc, "/dev/full").ok());
  obs::QueryLog log(4);
  log.Append(obs::QueryLogRecord());
  EXPECT_FALSE(log.DumpJsonl("/dev/full").ok());
}

}  // namespace
}  // namespace n2j
