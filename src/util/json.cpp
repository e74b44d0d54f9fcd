#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/strings.hpp"

namespace feast {

JsonValue JsonParser::parse() {
  if (limits_.max_bytes != 0 && text_.size() > limits_.max_bytes) {
    fail("input exceeds byte budget (" + std::to_string(text_.size()) + " > " +
         std::to_string(limits_.max_bytes) + ")");
  }
  JsonValue value = parse_value();
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content");
  return value;
}

void JsonParser::fail(const std::string& what) const {
  throw std::runtime_error("json: " + what + " at offset " + std::to_string(pos_));
}

void JsonParser::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonParser::peek() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonParser::consume_literal(const char* literal) {
  const std::size_t len = std::char_traits<char>::length(literal);
  if (text_.compare(pos_, len, literal) == 0) {
    pos_ += len;
    return true;
  }
  return false;
}

JsonValue JsonParser::parse_value() {
  skip_ws();
  switch (peek()) {
    case '{': return parse_object();
    case '[': return parse_array();
    case '"': {
      JsonValue v;
      v.type = JsonValue::Type::String;
      v.string = parse_string();
      return v;
    }
    case 't':
    case 'f': {
      JsonValue v;
      v.type = JsonValue::Type::Bool;
      if (consume_literal("true")) {
        v.boolean = true;
      } else if (consume_literal("false")) {
        v.boolean = false;
      } else {
        fail("bad literal");
      }
      return v;
    }
    case 'n': {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue{};
    }
    default: return parse_number();
  }
}

JsonValue JsonParser::parse_object() {
  // Depth is bounded here and in parse_array — the only two recursion
  // points — so a `[[[[...` or `{"a":{"a":...` bomb fails with an offset
  // instead of exhausting the call stack.
  if (++depth_ > limits_.max_depth) fail("nesting exceeds depth limit");
  expect('{');
  JsonValue v;
  v.type = JsonValue::Type::Object;
  skip_ws();
  if (peek() == '}') {
    ++pos_;
    --depth_;
    return v;
  }
  for (;;) {
    skip_ws();
    std::string key = parse_string();
    skip_ws();
    expect(':');
    v.object.emplace_back(std::move(key), parse_value());
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect('}');
    --depth_;
    return v;
  }
}

JsonValue JsonParser::parse_array() {
  if (++depth_ > limits_.max_depth) fail("nesting exceeds depth limit");
  expect('[');
  JsonValue v;
  v.type = JsonValue::Type::Array;
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    --depth_;
    return v;
  }
  for (;;) {
    v.array.push_back(parse_value());
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect(']');
    --depth_;
    return v;
  }
}

std::string JsonParser::parse_string() {
  expect('"');
  std::string out;
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = text_[pos_++];
          code <<= 4U;
          if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
          else fail("bad \\u escape");
        }
        // Our writers only emit \u00XX control escapes; decode the BMP
        // range as UTF-8 anyway for robustness.
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6U));
          out += static_cast<char>(0x80 | (code & 0x3FU));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12U));
          out += static_cast<char>(0x80 | ((code >> 6U) & 0x3FU));
          out += static_cast<char>(0x80 | (code & 0x3FU));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
}

JsonValue JsonParser::parse_number() {
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
  }
  if (start == pos_) fail("expected a value");
  JsonValue v;
  v.type = JsonValue::Type::Number;
  const std::string token = text_.substr(start, pos_ - start);
  std::size_t consumed = 0;
  try {
    v.number = std::stod(token, &consumed);
  } catch (const std::exception&) {
    fail("bad number");
  }
  // stod parses the longest valid prefix; "1e" or "1.2.3" must not pass.
  if (consumed != token.size()) fail("bad number");
  return v;
}

JsonValue parse_json(const std::string& text, JsonLimits limits) {
  return JsonParser(text, limits).parse();
}

std::string json_number(double value) {
  if (std::isfinite(value)) return format_full(value);
  if (std::isnan(value)) return "\"nan\"";
  return value > 0.0 ? "\"inf\"" : "\"-inf\"";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace feast
