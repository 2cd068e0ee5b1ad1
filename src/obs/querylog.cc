#include "obs/querylog.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "common/json.h"
#include "common/str_util.h"

namespace n2j {
namespace obs {

double QError(double est_rows, double actual_rows) {
  double e = est_rows < 1.0 ? 1.0 : est_rows;
  double a = actual_rows < 1.0 ? 1.0 : actual_rows;
  if (!std::isfinite(e)) return 1.0;
  return e > a ? e / a : a / e;
}

// ---- JSONL writer and reader --------------------------------------

namespace {

// %.6g keeps lines compact and round-trips every value we record
// (millisecond latencies, row counts, Q-errors) to reading precision.
constexpr const char* kDoubleFormat = "%.6g";

// The hash rides as 16 hex digits: a u64 does not survive the double
// round trip that readers of a numeric JSON field often make.
bool ParseHashHex(const std::string& hex, uint64_t* out) {
  if (hex.size() != 16 ||
      hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(hex.c_str(), nullptr, 16);
  return true;
}

}  // namespace

std::string QueryLogRecord::ToJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("id").U64(id);
  w.Key("hash").String(
      StrFormat("%016llx", static_cast<unsigned long long>(query_hash)));
  w.Key("query").String(query);
  w.Key("error").String(error);
  w.Key("strategy").String(strategy);
  w.Key("backend").String(backend);
  w.Key("threads").U64(static_cast<uint64_t>(threads));
  w.Key("compiled").Bool(compiled);
  w.Key("wall_ms").Double(wall_ms, kDoubleFormat);
  w.Key("translate_ms").Double(translate_ms, kDoubleFormat);
  w.Key("rewrite_ms").Double(rewrite_ms, kDoubleFormat);
  w.Key("plan_ms").Double(plan_ms, kDoubleFormat);
  w.Key("eval_ms").Double(eval_ms, kDoubleFormat);
  w.Key("rows_out").U64(rows_out);
  w.Key("max_q").Double(max_q, kDoubleFormat);
  w.Key("stats").BeginObject();
  size_t nfields = 0;
  const EvalStatsField* fields = EvalStatsFields(&nfields);
  for (size_t i = 0; i < nfields; ++i) {
    w.Key(fields[i].name).U64(stats.*fields[i].member);
  }
  w.EndObject();
  w.Key("roots").BeginArray();
  for (const RootEstimate& r : roots) {
    w.BeginObject();
    w.Key("op").String(r.op);
    w.Key("est").Double(r.est, kDoubleFormat);
    w.Key("actual").U64(r.actual);
    w.Key("q").Double(r.q, kDoubleFormat);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

// A known key of the wrong type or out of range rejects the line;
// unknown keys are skipped and missing ones keep their defaults.
bool QueryLogRecord::FromJson(const std::string& line, QueryLogRecord* out) {
  JsonValue root;
  if (!ParseJson(line, &root) || root.kind != JsonValue::Kind::kObject) {
    return false;
  }
  QueryLogRecord r;
  std::string hash(16, '0');
  uint64_t threads = 1;
  bool ok = root.Get("id", &r.id) && root.Get("hash", &hash) &&
            ParseHashHex(hash, &r.query_hash) &&
            root.Get("query", &r.query) && root.Get("error", &r.error) &&
            root.Get("strategy", &r.strategy) &&
            root.Get("backend", &r.backend) &&
            root.Get("threads", &threads) && threads <= INT_MAX &&
            root.Get("compiled", &r.compiled) &&
            root.Get("wall_ms", &r.wall_ms) &&
            root.Get("translate_ms", &r.translate_ms) &&
            root.Get("rewrite_ms", &r.rewrite_ms) &&
            root.Get("plan_ms", &r.plan_ms) &&
            root.Get("eval_ms", &r.eval_ms) &&
            root.Get("rows_out", &r.rows_out) &&
            root.Get("max_q", &r.max_q);
  if (!ok) return false;
  r.threads = static_cast<int>(threads);

  if (const JsonValue* stats = root.Find("stats")) {
    if (stats->kind != JsonValue::Kind::kObject) return false;
    size_t nfields = 0;
    const EvalStatsField* fields = EvalStatsFields(&nfields);
    for (size_t i = 0; i < nfields; ++i) {
      if (!stats->Get(fields[i].name, &(r.stats.*fields[i].member))) {
        return false;
      }
    }
  }
  if (const JsonValue* roots = root.Find("roots")) {
    if (roots->kind != JsonValue::Kind::kArray) return false;
    for (const JsonValue& v : roots->items) {
      RootEstimate e;
      if (v.kind != JsonValue::Kind::kObject || !v.Get("op", &e.op) ||
          !v.Get("est", &e.est) || !v.Get("actual", &e.actual) ||
          !v.Get("q", &e.q)) {
        return false;
      }
      r.roots.push_back(std::move(e));
    }
  }
  *out = std::move(r);
  return true;
}

// ---- Ring buffer -----------------------------------------------------

QueryLog::QueryLog(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity),
      slots_(new Slot[capacity < 1 ? 1 : capacity]) {}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

uint64_t QueryLog::Append(QueryLogRecord r) {
  uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
  r.id = id;
  Slot& slot = slots_[id % capacity_];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.record = std::move(r);
  slot.filled = true;
  return id;
}

std::vector<QueryLogRecord> QueryLog::Snapshot(size_t last_n) const {
  std::vector<QueryLogRecord> out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.filled) out.push_back(slot.record);
  }
  std::sort(out.begin(), out.end(),
            [](const QueryLogRecord& a, const QueryLogRecord& b) {
              return a.id < b.id;
            });
  if (last_n > 0 && out.size() > last_n) {
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(last_n));
  }
  return out;
}

std::string QueryLog::ToJsonl() const {
  std::string out;
  for (const QueryLogRecord& r : Snapshot()) {
    out += r.ToJson();
    out += '\n';
  }
  return out;
}

Status QueryLog::DumpJsonl(const std::string& path) const {
  return WriteFile(path, ToJsonl());
}

void QueryLog::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.filled = false;
    slot.record = QueryLogRecord();
  }
  next_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace n2j
