#include "common/json.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/str_util.h"

namespace n2j {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool Document(JsonValue* out) {
    if (!Value(out, 0)) return false;
    Peek();
    return pos_ == s_.size();
  }

 private:
  // Skips whitespace; returns the next byte, or '\0' at the end.
  char Peek() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  // Consumes `c` if it is the very next byte.
  bool Next(char c) {
    if (pos_ == s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  // Consumes `c` if it comes next after whitespace.
  bool Eat(char c) {
    Peek();
    return Next(c);
  }
  size_t Digits() {
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ - start;
  }
  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    switch (Peek()) {
      case '{':
      case '[':
        // Each level costs a native stack frame here and in ~JsonValue.
        return depth < JsonValue::kMaxDepth && Container(out, depth + 1);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return String(&out->str);
      case 't':
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = s_[pos_] == 't';
        return Literal(out->boolean ? "true" : "false");
      case 'n': return Literal("null");
      default: return Number(out);
    }
  }

  bool Container(JsonValue* out, int depth) {
    bool object = s_[pos_++] == '{';
    out->kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    char close = object ? '}' : ']';
    if (Eat(close)) return true;
    do {
      if (object) {
        out->keys.emplace_back();
        if (Peek() != '"' || !String(&out->keys.back()) || !Eat(':')) {
          return false;
        }
      }
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth)) return false;
    } while (Eat(','));
    return Eat(close);
  }

  bool String(std::string* out) {
    static constexpr std::string_view kLetters = "\"\\/bfnrt";
    static constexpr std::string_view kBytes = "\"\\/\b\f\n\r\t";
    ++pos_;  // '"'
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ == s_.size()) return false;
      char e = s_[pos_++];
      size_t letter = kLetters.find(e);
      if (letter != std::string_view::npos) {
        *out += kBytes[letter];
        continue;
      }
      // \u00XX: four hex digits naming one byte.
      const char* hex = s_.data() + pos_;
      unsigned cp = 0;
      if (e != 'u' || s_.size() - pos_ < 4 ||
          std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4 || cp > 0xFF) {
        return false;
      }
      pos_ += 4;
      *out += static_cast<char>(cp);
    }
    return false;  // unterminated
  }

  // -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool Number(JsonValue* out) {
    size_t start = pos_;
    bool negative = Next('-');
    const char* int_start = s_.data() + pos_;
    if (!Next('0') && Digits() == 0) return false;
    const char* int_end = s_.data() + pos_;
    bool fraction = Next('.');
    if (fraction && Digits() == 0) return false;
    bool exponent = Next('e') || Next('E');
    if (exponent && !Next('+')) Next('-');
    if (exponent && Digits() == 0) return false;
    out->kind = JsonValue::Kind::kNumber;
    std::string text(s_.substr(start, pos_ - start));
    out->number = std::strtod(text.c_str(), nullptr);
    // from_chars leaves u64 at 0 when the integer does not fit.
    out->is_u64 = !negative && !fraction && !exponent &&
                  std::from_chars(int_start, int_end, out->u64).ec ==
                      std::errc();
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) return &items[i];
  }
  return nullptr;
}

bool JsonValue::As(std::string* out) const {
  if (kind == Kind::kString) *out = str;
  return kind == Kind::kString;
}

bool JsonValue::As(uint64_t* out) const {
  if (is_u64) *out = u64;
  return is_u64;
}

bool JsonValue::As(double* out) const {
  if (kind == Kind::kNumber) *out = number;
  return kind == Kind::kNumber;
}

bool JsonValue::As(bool* out) const {
  if (kind == Kind::kBool) *out = boolean;
  return kind == Kind::kBool;
}

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Document(out);
}

JsonWriter& JsonWriter::Raw(std::string_view text) {
  if (!after_key_ && !empty_.empty() && !empty_.back()) *out_ += ',';
  if (!empty_.empty()) empty_.back() = false;
  after_key_ = false;
  *out_ += text;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Raw(std::string_view(&bracket, 1));
  empty_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  empty_.pop_back();
  *out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  *out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  static constexpr std::string_view kBytes = "\"\\\b\f\n\r\t";
  static constexpr std::string_view kLetters = "\"\\bfnrt";
  Raw("\"");
  for (char c : s) {
    size_t i = kBytes.find(c);
    if (i != std::string_view::npos) {
      *out_ += '\\';
      *out_ += kLetters[i];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out_ += StrFormat("\\u%04x", static_cast<unsigned char>(c));
    } else {
      *out_ += c;
    }
  }
  *out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Double(double v, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return Raw(buf);
}

Status WriteFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::RuntimeError("cannot open " + path + " for writing: " +
                                std::strerror(errno));
  }
  bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes the buffer, so a full disk may show only here.
  if (std::fclose(f) != 0 || !written) {
    return Status::RuntimeError("cannot write " + path + ": " +
                                std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace n2j
