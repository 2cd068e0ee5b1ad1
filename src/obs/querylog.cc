#include "obs/querylog.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/str_util.h"

namespace n2j {
namespace obs {

double QError(double est_rows, double actual_rows) {
  double e = est_rows < 1.0 ? 1.0 : est_rows;
  double a = actual_rows < 1.0 ? 1.0 : actual_rows;
  if (!std::isfinite(e)) return 1.0;
  return e > a ? e / a : a / e;
}

// ---- JSONL writer ----------------------------------------------------

namespace {

void AppendKv(std::string* out, const char* key, const std::string& v,
              bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":\"";
  AppendJsonEscaped(out, v);
  *out += '"';
}

void AppendKv(std::string* out, const char* key, uint64_t v, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += StrFormat("\"%s\":%llu", key,
                    static_cast<unsigned long long>(v));
}

void AppendKv(std::string* out, const char* key, double v, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  // %.6g keeps lines compact and round-trips every value we record
  // (millisecond latencies, row counts, Q-errors) to reading precision.
  *out += StrFormat("\"%s\":%.6g", key, v);
}

void AppendKv(std::string* out, const char* key, bool v, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += StrFormat("\"%s\":%s", key, v ? "true" : "false");
}

}  // namespace

std::string QueryLogRecord::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendKv(&out, "id", id, &first);
  // The hash rides as a hex string: a u64 does not survive the double
  // round-trip a numeric JSON field implies.
  AppendKv(&out, "hash", StrFormat("%016llx", static_cast<unsigned long long>(
                                                  query_hash)),
           &first);
  AppendKv(&out, "query", query, &first);
  AppendKv(&out, "error", error, &first);
  AppendKv(&out, "strategy", strategy, &first);
  AppendKv(&out, "backend", backend, &first);
  AppendKv(&out, "threads", static_cast<uint64_t>(threads), &first);
  AppendKv(&out, "compiled", compiled, &first);
  AppendKv(&out, "wall_ms", wall_ms, &first);
  AppendKv(&out, "translate_ms", translate_ms, &first);
  AppendKv(&out, "rewrite_ms", rewrite_ms, &first);
  AppendKv(&out, "plan_ms", plan_ms, &first);
  AppendKv(&out, "eval_ms", eval_ms, &first);
  AppendKv(&out, "rows_out", rows_out, &first);
  AppendKv(&out, "max_q", max_q, &first);

  out += ",\"stats\":{";
  size_t nfields = 0;
  const EvalStatsField* fields = EvalStatsFields(&nfields);
  bool sfirst = true;
  for (size_t i = 0; i < nfields; ++i) {
    AppendKv(&out, fields[i].name, stats.*fields[i].member, &sfirst);
  }
  out += '}';

  out += ",\"roots\":[";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out += ',';
    out += '{';
    bool rfirst = true;
    AppendKv(&out, "op", roots[i].op, &rfirst);
    AppendKv(&out, "est", roots[i].est, &rfirst);
    AppendKv(&out, "actual", roots[i].actual, &rfirst);
    AppendKv(&out, "q", roots[i].q, &rfirst);
    out += '}';
  }
  out += "]}";
  return out;
}

// ---- JSONL reader ----------------------------------------------------
//
// A minimal strict parser for the subset the writer emits (objects,
// arrays, strings with RFC 8259 escapes, numbers, booleans). Kept here,
// not in a shared json library, because the record format is the only
// JSON this codebase ever reads back.

namespace {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue* Find(const char* key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
      case '[': {
        // Each level costs a native stack frame here and in ~JsonValue,
        // so a hostile line must not nest without bound.
        if (depth_ == kMaxDepth) return false;
        ++depth_;
        bool ok = s_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->b = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::kBool;
        out->b = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::kNull;
        return Literal("null");
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->fields.emplace(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < s_.size()) {
      unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control byte: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
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
            // The writer only emits \u00xx for control bytes.
            if (cp > 0xFF) return false;
            *out += static_cast<char>(cp);
            break;
          }
          default: return false;
        }
        continue;
      }
      *out += static_cast<char>(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::kNumber;
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  // The record nests three levels (record, "roots", one root); the
  // slack lets the format grow.
  static constexpr int kMaxDepth = 16;

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

std::string GetString(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::kString ? v->str
                                                       : std::string();
}

double GetNumber(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::kNumber ? v->num : fallback;
}

uint64_t GetU64(const JsonValue& obj, const char* key) {
  return static_cast<uint64_t>(GetNumber(obj, key, 0.0));
}

bool GetBool(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::kBool ? v->b : fallback;
}

}  // namespace

bool QueryLogRecord::FromJson(const std::string& line, QueryLogRecord* out) {
  JsonValue root;
  JsonParser parser(line);
  if (!parser.Parse(&root) || root.kind != JsonValue::kObject) return false;

  *out = QueryLogRecord();
  out->id = GetU64(root, "id");
  out->query_hash =
      std::strtoull(GetString(root, "hash").c_str(), nullptr, 16);
  out->query = GetString(root, "query");
  out->error = GetString(root, "error");
  out->strategy = GetString(root, "strategy");
  out->backend = GetString(root, "backend");
  out->threads = static_cast<int>(GetNumber(root, "threads", 1));
  out->compiled = GetBool(root, "compiled", true);
  out->wall_ms = GetNumber(root, "wall_ms", 0.0);
  out->translate_ms = GetNumber(root, "translate_ms", 0.0);
  out->rewrite_ms = GetNumber(root, "rewrite_ms", 0.0);
  out->plan_ms = GetNumber(root, "plan_ms", 0.0);
  out->eval_ms = GetNumber(root, "eval_ms", 0.0);
  out->rows_out = GetU64(root, "rows_out");
  out->max_q = GetNumber(root, "max_q", 0.0);

  const JsonValue* stats = root.Find("stats");
  if (stats != nullptr && stats->kind == JsonValue::kObject) {
    size_t nfields = 0;
    const EvalStatsField* fields = EvalStatsFields(&nfields);
    for (size_t i = 0; i < nfields; ++i) {
      out->stats.*fields[i].member = GetU64(*stats, fields[i].name);
    }
  }
  const JsonValue* roots = root.Find("roots");
  if (roots != nullptr && roots->kind == JsonValue::kArray) {
    for (const JsonValue& r : roots->items) {
      if (r.kind != JsonValue::kObject) return false;
      RootEstimate e;
      e.op = GetString(r, "op");
      e.est = GetNumber(r, "est", -1.0);
      e.actual = GetU64(r, "actual");
      e.q = GetNumber(r, "q", 1.0);
      out->roots.push_back(std::move(e));
    }
  }
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
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::RuntimeError("cannot open " + path + " for writing");
  }
  std::string doc = ToJsonl();
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  if (std::fclose(f) != 0 || written != doc.size()) {
    return Status::RuntimeError("short write to " + path);
  }
  return Status::OK();
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
