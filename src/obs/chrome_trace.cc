#include "obs/chrome_trace.h"

#include "common/json.h"
#include "common/str_util.h"
#include "obs/trace.h"

namespace n2j {
namespace {

// Operator spans live on tid 0 ("evaluator"); worker w's morsels live on
// tid 1 + w so each worker gets its own track.
constexpr int kPid = 1;
constexpr int kEvaluatorTid = 0;

void AppendMetadata(JsonWriter* w, const char* what, int tid,
                    const std::string& name) {
  w->BeginObject().Key("name").String(what).Key("ph").String("M");
  w->Key("pid").U64(kPid).Key("tid").U64(static_cast<uint64_t>(tid));
  w->Key("args").BeginObject().Key("name").String(name).EndObject();
  w->EndObject();
}

// Opens one complete ("X") event and its args object; the caller adds
// the args and closes both. `ts`/`dur` are microseconds; trace_event
// accepts fractional values, so we keep nanosecond precision.
void BeginComplete(JsonWriter* w, std::string_view name, int tid,
                   int64_t start_ns, int64_t end_ns, int64_t base_ns) {
  w->BeginObject().Key("name").String(name).Key("ph").String("X");
  w->Key("pid").U64(kPid).Key("tid").U64(static_cast<uint64_t>(tid));
  w->Key("ts").Double(static_cast<double>(start_ns - base_ns) / 1e3, "%.3f");
  w->Key("dur").Double(static_cast<double>(end_ns - start_ns) / 1e3, "%.3f");
  w->Key("args").BeginObject();
}

}  // namespace

std::string ChromeTraceJson(const TraceCollector& trace) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("traceEvents").BeginArray();
  AppendMetadata(&w, "process_name", kEvaluatorTid, "n2j query");
  AppendMetadata(&w, "thread_name", kEvaluatorTid, "evaluator");

  int max_worker = -1;
  for (const WorkerSpan& ws : trace.worker_spans()) {
    if (ws.worker > max_worker) max_worker = ws.worker;
  }
  for (int i = 0; i <= max_worker; ++i) {
    AppendMetadata(&w, "thread_name", 1 + i, StrFormat("worker %d", i));
  }

  for (const TraceSpan& s : trace.spans()) {
    BeginComplete(&w, s.Label(), kEvaluatorTid, s.start_ns, s.end_ns,
                  trace.base_ns());
    w.Key("rows_in").U64(s.rows_in).Key("rows_out").U64(s.rows_out);
    if (s.rows_build > 0) w.Key("rows_build").U64(s.rows_build);
    if (s.peak_hash_size > 0) w.Key("peak_hash").U64(s.peak_hash_size);
    std::string stats = s.exclusive.Compact();
    if (!stats.empty()) w.Key("stats").String(stats);
    w.EndObject().EndObject();
  }

  for (const WorkerSpan& ws : trace.worker_spans()) {
    BeginComplete(&w, ws.phase, 1 + ws.worker, ws.start_ns, ws.end_ns,
                  trace.base_ns());
    w.Key("morsel").U64(ws.morsel).EndObject().EndObject();
  }

  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  out += '\n';
  return out;
}

Status WriteChromeTrace(const TraceCollector& trace,
                        const std::string& path) {
  return WriteFile(path, ChromeTraceJson(trace));
}

}  // namespace n2j
