// Minimal JSON document model with a strict parser and a canonical writer.
//
// The observability layer only ever *emits* JSON (obs/json.hpp); the serve
// wire protocol and the synthesis-cache snapshots also have to *read* it, so
// this module adds a small owned Value type (null / bool / number / string /
// array / object) with a recursive-descent parser. Design points:
//
//  * Numbers are doubles. %.17g round-trips every finite double exactly, so
//    gate angles survive a dump/load cycle bit-for-bit; integers up to 2^53
//    are exact. Non-finite doubles serialize as the strings "inf"/"-inf"/
//    "nan" (JSON has no literals for them).
//  * Objects preserve insertion order (vector of pairs) — canonical output
//    is reproducible and diffs stay readable.
//  * The parser enforces a nesting-depth cap so a hostile wire payload
//    cannot blow the stack, and reports errors with byte offsets via
//    common::Error.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace qc::common::json {

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Value>;
  using Members = std::vector<std::pair<std::string, Value>>;

  Value() : type_(Type::Null) {}
  Value(std::nullptr_t) : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double v) : type_(Type::Number), number_(v) {}
  Value(const char* s) : type_(Type::String), string_(s) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(Array a) : type_(Type::Array), array_(std::move(a)) {}
  /// Any integral type funnels through one constructor (values beyond 2^53
  /// should be serialized as hex strings by the caller instead).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Value(T v) : type_(Type::Number), number_(static_cast<double>(v)) {}

  static Value object() {
    Value v;
    v.type_ = Type::Object;
    return v;
  }
  static Value array() {
    Value v;
    v.type_ = Type::Array;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  // Checked accessors; throw ContractError on type mismatch. The integer
  // ones also throw unless the number is finite and its truncation fits.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;      // number truncated toward zero
  std::uint64_t as_uint64() const;  // number; negative values throw
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Members& members() const;

  // ---- object helpers --------------------------------------------------
  /// Sets (or replaces) a member; turns a Null value into an Object first.
  Value& set(const std::string& key, Value v);
  /// Member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// Member with a default when absent. Throws on type mismatch when present.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  double get_number(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // ---- array helpers ---------------------------------------------------
  /// Appends to an array; turns a Null value into an Array first.
  Value& push_back(Value v);
  std::size_t size() const;

  /// Canonical single-line rendering.
  std::string dump() const;

  bool operator==(const Value& rhs) const;

 private:
  void write(std::string& out) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Members object_;
};

using Array = Value::Array;
using Members = Value::Members;

/// Parses one JSON document (trailing whitespace allowed, trailing garbage is
/// an error). Throws common::Error with a byte offset on malformed input.
/// `max_depth` bounds array/object nesting.
Value parse(const std::string& text, int max_depth = 64);

/// parse() that reports failure via return instead of throwing (wire-facing
/// code paths turn malformed payloads into structured error replies).
bool try_parse(const std::string& text, Value* out, std::string* error,
               int max_depth = 64);

/// Exact textual round-trip helpers for doubles whose bit pattern matters
/// (gate parameters in cache snapshots): hex bit-pattern encoding.
std::string double_to_bits_hex(double v);
double double_from_bits_hex(const std::string& hex);

}  // namespace qc::common::json
