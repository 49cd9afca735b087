// The JSON the repo's exporters emit and its readers accept: one string
// escaper, the "key":number appenders, and a small strict reader.
//
// Writers build documents by hand for byte-stable output (the trace,
// metrics and timeline exports and the model checker's counterexample
// files); these helpers are the pieces they share. The reader parses a
// whole document into a Value tree. It accepts RFC 8259 JSON only: no
// comments, no trailing commas, no leading '+', hex, inf or nan, and
// nothing after the document. Numbers keep their token, so integers are
// read exactly (a 64-bit seed survives) and overflow is an error.

#ifndef SCATTER_SRC_COMMON_JSON_H_
#define SCATTER_SRC_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scatter::json {

// Appends `s` as a quoted JSON string. Escapes '"', '\\', '\n', '\t' and
// every other control character (as \u00XX); other bytes pass through.
void AppendString(std::string* out, std::string_view s);

// Append `"key":v`. Doubles print with %.17g, so strtod reads back the
// same value and equal doubles always print the same bytes.
void AppendU64(std::string* out, const char* key, uint64_t v);
void AppendI64(std::string* out, const char* key, int64_t v);
void AppendDouble(std::string* out, const char* key, double v);

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  // The decoded contents of a string, or the token of a number.
  std::string text;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  // The first member named `key` of an object; nullptr when absent or when
  // this is not an object.
  const Value* Find(std::string_view key) const;

  // Numeric reads; false unless this is a number that fits. The integer
  // reads also reject a fraction or exponent.
  bool AsU64(uint64_t* out) const;
  bool AsI64(int64_t* out) const;
  bool AsDouble(double* out) const;
};

// Parses one complete document. On failure returns false and, when `error`
// is non-null, says what was wrong and at which byte offset.
bool Parse(std::string_view text, Value* out, std::string* error = nullptr);

}  // namespace scatter::json

#endif  // SCATTER_SRC_COMMON_JSON_H_
