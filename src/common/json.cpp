#include "common/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace qc::common::json {

bool Value::as_bool() const {
  QC_CHECK_MSG(type_ == Type::Bool, "json: value is not a bool");
  return bool_;
}

double Value::as_number() const {
  QC_CHECK_MSG(type_ == Type::Number, "json: value is not a number");
  return number_;
}

// The casts below are defined only for values whose truncation fits the
// target type; the parser turns an overlong literal such as 1e400 into inf.
// Each bound is a power of two, so the comparisons are exact, and NaN fails
// them all.
std::int64_t Value::as_int() const {
  const double v = as_number();
  QC_CHECK_MSG(v >= -0x1p63 && v < 0x1p63, "json: number outside the int64 range");
  return static_cast<std::int64_t>(v);
}

std::uint64_t Value::as_uint64() const {
  const double v = as_number();
  QC_CHECK_MSG(v >= 0.0, "json: negative value where unsigned expected");
  QC_CHECK_MSG(v < 0x1p64, "json: number outside the uint64 range");
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string() const {
  QC_CHECK_MSG(type_ == Type::String, "json: value is not a string");
  return string_;
}

const Array& Value::as_array() const {
  QC_CHECK_MSG(type_ == Type::Array, "json: value is not an array");
  return array_;
}

Array& Value::as_array() {
  QC_CHECK_MSG(type_ == Type::Array, "json: value is not an array");
  return array_;
}

const Members& Value::members() const {
  QC_CHECK_MSG(type_ == Type::Object, "json: value is not an object");
  return object_;
}

Value& Value::set(const std::string& key, Value v) {
  if (type_ == Type::Null) type_ = Type::Object;
  QC_CHECK_MSG(type_ == Type::Object, "json: set() on a non-object");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_string();
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_number();
}

std::int64_t Value::get_int(const std::string& key, std::int64_t fallback) const {
  const Value* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_int();
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr || v->is_null() ? fallback : v->as_bool();
}

Value& Value::push_back(Value v) {
  if (type_ == Type::Null) type_ = Type::Array;
  QC_CHECK_MSG(type_ == Type::Array, "json: push_back() on a non-array");
  array_.push_back(std::move(v));
  return *this;
}

std::size_t Value::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  QC_CHECK_MSG(false, "json: size() on a scalar");
  return 0;
}

bool Value::operator==(const Value& rhs) const {
  if (type_ != rhs.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == rhs.bool_;
    case Type::Number:
      // Bit comparison so NaN == NaN inside documents compares stable.
      return std::memcmp(&number_, &rhs.number_, sizeof(double)) == 0;
    case Type::String: return string_ == rhs.string_;
    case Type::Array: return array_ == rhs.array_;
    case Type::Object: return object_ == rhs.object_;
  }
  return false;
}

void Value::write(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: out += obs::detail::json_number(number_); break;
    case Type::String:
      out += '"';
      out += obs::detail::json_escape(string_);
      out += '"';
      break;
    case Type::Array: {
      out += '[';
      bool first = true;
      for (const Value& v : array_) {
        if (!first) out += ',';
        first = false;
        v.write(out);
      }
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += obs::detail::json_escape(k);
        out += "\":";
        v.write(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out);
  return out;
}

// ---- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') return obj;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') return arr;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = next();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                fail("invalid \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by our writer; a lone surrogate encodes as-is).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      out += c;
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("invalid value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return Value(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

Value parse(const std::string& text, int max_depth) {
  return Parser(text, max_depth).parse_document();
}

bool try_parse(const std::string& text, Value* out, std::string* error,
               int max_depth) {
  try {
    Value v = parse(text, max_depth);
    if (out != nullptr) *out = std::move(v);
    return true;
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

std::string double_to_bits_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

double double_from_bits_hex(const std::string& hex) {
  QC_CHECK_MSG(!hex.empty() && hex.size() <= 16, "malformed double bit pattern");
  char* end = nullptr;
  const std::uint64_t bits = std::strtoull(hex.c_str(), &end, 16);
  QC_CHECK_MSG(end != nullptr && *end == '\0', "malformed double bit pattern");
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace qc::common::json
