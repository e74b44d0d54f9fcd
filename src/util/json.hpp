/// \file json.hpp
/// \brief A deliberately small JSON reader.
///
/// Covers the subset this repository writes — objects, arrays, strings
/// with basic escapes, numbers, booleans, null — so manifests, benchmark
/// records and Chrome traces can be read back without an external
/// dependency.  Extracted from the campaign manifest reader once the
/// observability tests needed to round-trip trace JSON too.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace feast {

/// One parsed JSON value (a tagged union kept deliberately plain).
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member named \p key, or nullptr (objects only).
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// String member \p key, or \p fallback when absent or not a string.
  std::string string_or(const std::string& key,
                        const std::string& fallback = "") const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->type == Type::String) ? v->string : fallback;
  }
};

/// Resource bounds enforced while parsing.  The defaults are generous
/// enough for every file this repository writes (manifests, traces, bench
/// records); the serve daemon passes tighter ones because its input is
/// attacker-controlled bytes off a socket.
struct JsonLimits {
  /// Maximum nesting depth of arrays/objects.  A deeply nested `[[[[...`
  /// bomb otherwise turns the recursive-descent parser into a stack
  /// overflow — a remote crash, not a parse error.
  std::size_t max_depth = 128;
  /// Maximum input size in bytes; 0 means unlimited.  Checked up front so
  /// an oversized document is rejected before any work is done.
  std::size_t max_bytes = 0;
};

/// Recursive-descent parser over a complete input string.  Throws
/// std::runtime_error with an offset on malformed input or a violated
/// limit.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text, JsonLimits limits = {})
      : text_(text), limits_(limits) {}

  /// Parses the whole input (trailing content is an error).
  JsonValue parse();

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  char peek();
  void expect(char c);
  bool consume_literal(const char* literal);
  JsonValue parse_value();
  JsonValue parse_object();
  JsonValue parse_array();
  std::string parse_string();
  JsonValue parse_number();

  const std::string& text_;
  JsonLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// Convenience: parse a complete JSON document.
JsonValue parse_json(const std::string& text, JsonLimits limits = {});

/// Renders \p value as a JSON number at full precision (format_full).  JSON
/// has no literal for NaN/Inf, and %.17g's bare `nan`/`inf` would be
/// rejected by any parser (ours too), so non-finite values are written as
/// the quoted strings "nan", "inf" and "-inf".
std::string json_number(double value);

/// Escapes \p s for embedding inside a JSON string literal (quotes,
/// backslashes, control characters as \uXXXX).
std::string json_escape(const std::string& s);

}  // namespace feast
