#include "src/common/json.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace scatter::json {

void AppendString(std::string* out, std::string_view s) {
  out->reserve(out->size() + s.size() + 2);
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64(std::string* out, const char* key, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  *out += buf;
}

void AppendI64(std::string* out, const char* key, int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, v);
  *out += buf;
}

void AppendDouble(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, v);
  *out += buf;
}

// ---------------------------------------------------------------------------

const Value* Value::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Exact decimal read of a digits-only string; false on overflow.
bool ParseMagnitude(std::string_view digits, uint64_t* out) {
  if (digits.empty()) return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (!IsDigit(c)) return false;
    const auto d = static_cast<uint64_t>(c - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

}  // namespace

bool Value::AsU64(uint64_t* out) const {
  return type == Type::kNumber && ParseMagnitude(text, out);
}

bool Value::AsI64(int64_t* out) const {
  if (type != Type::kNumber) return false;
  const bool negative = !text.empty() && text[0] == '-';
  uint64_t magnitude = 0;
  if (!ParseMagnitude(std::string_view(text).substr(negative ? 1 : 0),
                      &magnitude)) {
    return false;
  }
  const auto max = static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  if (negative) {
    if (magnitude > max + 1) return false;
    *out = magnitude == max + 1 ? std::numeric_limits<int64_t>::min()
                                : -static_cast<int64_t>(magnitude);
  } else {
    if (magnitude > max) return false;
    *out = static_cast<int64_t>(magnitude);
  }
  return true;
}

bool Value::AsDouble(double* out) const {
  if (type != Type::kNumber) return false;
  // The token already matched the JSON number grammar, which strtod reads
  // the same way; only the range is left to check.
  const double v = std::strtod(text.c_str(), nullptr);
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(Value* out, std::string* error) {
    SkipWs();
    bool ok = ParseValue(out, 0);
    if (ok) {
      SkipWs();
      if (pos_ != text_.size()) ok = Fail("trailing characters");
    }
    if (!ok && error != nullptr) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* why) {
    error_ = why;
    return false;
  }

  bool AtEnd() const { return pos_ == text_.size(); }

  void SkipWs() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (AtEnd()) return Fail("unexpected end");
    switch (text_[pos_]) {
      case '{':
        out->type = Value::Type::kObject;
        return ParseObject(out, depth);
      case '[':
        out->type = Value::Type::kArray;
        return ParseArray(out, depth);
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->text);
      case 't':
        out->type = Value::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = Value::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = Value::Type::kNull;
        return Literal("null");
      default:
        out->type = Value::Type::kNumber;
        return ParseNumber(&out->text);
    }
  }

  bool ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      Value value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      Value value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(std::string* out) {
    const size_t start = pos_;
    Consume('-');
    if (!Consume('0')) {
      if (AtEnd() || !IsDigit(text_[pos_])) return Fail("bad number");
      SkipDigits();
    }
    if (Consume('.') && !SkipDigits()) return Fail("bad number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!SkipDigits()) return Fail("bad number");
    }
    out->assign(text_.substr(start, pos_ - start));
    return true;
  }

  // Skips a run of digits; false when there was none.
  bool SkipDigits() {
    const size_t start = pos_;
    while (!AtEnd() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) break;
      switch (text_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u':
          if (!ParseCodeUnit(out)) return Fail("bad \\u escape");
          break;
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // Four hex digits after "\u", appended as UTF-8. The writers only escape
  // control characters, so surrogate pairs are not combined.
  bool ParseCodeUnit(std::string* out) {
    if (text_.size() - pos_ < 4) return false;
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (IsDigit(h)) {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool Parse(std::string_view text, Value* out, std::string* error) {
  *out = Value();
  return Parser(text).ParseDocument(out, error);
}

}  // namespace scatter::json
