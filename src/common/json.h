#ifndef N2J_COMMON_JSON_H_
#define N2J_COMMON_JSON_H_

// The one JSON reader and the one JSON writer of the library. The query
// log, Chrome traces and the bench trajectories write through JsonWriter;
// tools/n2j_logcat and the tests read through ParseJson.
//
// The reader is strict RFC 8259 with three limits of its own: it nests at
// most JsonValue::kMaxDepth containers, decodes `\u` escapes only up to
// 0xFF (one byte each, the only ones the writer emits), and keeps the
// first of two members with one key.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace n2j {

/// One parsed JSON value; containers own their children.
struct JsonValue {
  /// A query-log record nests three levels; the slack lets formats grow
  /// without letting a hostile line exhaust the stack.
  static constexpr int kMaxDepth = 16;

  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;   // every number, to the nearest double
  bool is_u64 = false;   // an integer in [0, UINT64_MAX], exact in `u64`
  uint64_t u64 = 0;
  std::string str;
  std::vector<JsonValue> items;   // array elements or object values
  std::vector<std::string> keys;  // object keys, parallel to `items`

  /// The object member `key` (the first, if it repeats), or nullptr.
  const JsonValue* Find(std::string_view key) const;

  /// Stores this value in `*out` if it has `*out`'s type (for a u64: a
  /// non-negative integer that fits) and returns true; else false.
  bool As(std::string* out) const;
  bool As(uint64_t* out) const;
  bool As(double* out) const;
  bool As(bool* out) const;

  /// As() on member `key`; an absent key leaves `*out` as it is.
  template <typename T>
  bool Get(std::string_view key, T* out) const {
    const JsonValue* v = Find(key);
    return v == nullptr || v->As(out);
  }
};

/// Parses one whole document (surrounding whitespace allowed). Returns
/// false on anything RFC 8259 or the limits above reject.
bool ParseJson(std::string_view text, JsonValue* out);

/// Appends one JSON document to a string, placing the commas itself:
///
///   JsonWriter w(&out);
///   w.BeginObject().Key("id").U64(7).Key("tags").BeginArray();
///   w.String("a").EndArray().EndObject();  // {"id":7,"tags":["a"]}
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// The member name for the next value inside an object.
  JsonWriter& Key(std::string_view key);
  /// Escaped per RFC 8259: `"` and `\` get a backslash, the control
  /// bytes with a short form use it (\b \f \n \r \t), other bytes below
  /// 0x20 become \u00XX, and every byte from 0x20 up passes unchanged.
  JsonWriter& String(std::string_view s);
  JsonWriter& U64(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  /// `fmt` is one printf conversion for a double ("%.6g", "%.3f"), so
  /// each document keeps its own precision.
  JsonWriter& Double(double v, const char* fmt);

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  /// Appends one value's text after the comma it needs, if any.
  JsonWriter& Raw(std::string_view text);

  std::string* out_;
  std::vector<bool> empty_;  // per open container: nothing written yet
  bool after_key_ = false;
};

/// Writes `text` to `path`, replacing the file. Fails when the file
/// cannot be opened, or when writing or closing it fails.
Status WriteFile(const std::string& path, std::string_view text);

}  // namespace n2j

#endif  // N2J_COMMON_JSON_H_
