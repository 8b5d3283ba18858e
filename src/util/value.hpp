#pragma once

/// \file value.hpp
/// A small JSON-like dynamic value. Used as the lingua franca for task
/// payloads (EMEWS), compute-function arguments/results (fabric) and
/// metadata records (AERO) — the role JSON plays in the real systems.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace osprey::util {

class Value;

using ValueArray = std::vector<Value>;
/// Objects keep keys ordered (std::map) so serialization is deterministic.
using ValueObject = std::map<std::string, Value>;

/// Dynamic JSON-like value: null, bool, int64, double, string, array, object.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::size_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(ValueArray a) : data_(std::move(a)) {}
  Value(ValueObject o) : data_(std::move(o)) {}

  /// Convenience: build an array from a vector of doubles.
  static Value from_doubles(const std::vector<double>& xs);
  /// Convenience: extract a vector of doubles from an array of numbers.
  std::vector<double> to_doubles() const;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  /// True for either int or double.
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<ValueArray>(data_); }
  bool is_object() const { return std::holds_alternative<ValueObject>(data_); }

  bool as_bool() const;
  std::int64_t as_int() const;
  /// Numeric coercion: returns the value of an int or double node.
  double as_double() const;
  const std::string& as_string() const;
  const ValueArray& as_array() const;
  ValueArray& as_array();
  const ValueObject& as_object() const;
  ValueObject& as_object();

  /// Object member access; throws NotFound for a missing key on const access.
  const Value& at(const std::string& key) const;
  /// Object member access; inserts null for a missing key (like std::map).
  Value& operator[](const std::string& key);
  bool contains(const std::string& key) const;

  /// Array element access with bounds checking.
  const Value& at(std::size_t index) const;
  std::size_t size() const;

  /// Member with a default when the key is absent.
  double get_or(const std::string& key, double fallback) const;
  std::int64_t get_or(const std::string& key, std::int64_t fallback) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;

  /// Compact JSON serialization (deterministic key order).
  std::string to_json() const;
  /// Parse JSON text; throws InvalidArgument on malformed input.
  static Value parse_json(const std::string& text);

  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               ValueArray, ValueObject>
      data_;
};

/// Appends `s` to `out` as a JSON string literal, quotes included,
/// escaped exactly as Value::to_json escapes strings.
void append_json_string(std::string_view s, std::string& out);

/// One member of a JSON object as parse_json_members reads it.
struct JsonMember {
  /// The member's value; an array or object is left empty.
  Value value;
  /// The size() an array or object would have if built: its elements,
  /// or its distinct keys. 0 for a scalar.
  std::size_t size = 0;
};

/// Reads the members of a top-level JSON object without building the
/// arrays and objects inside them: scalars come back whole, containers
/// only as their size. `text` passes the same checks as in
/// Value::parse_json, and a repeated key keeps its last value as there.
/// Throws InvalidArgument on malformed text or a non-object.
std::map<std::string, JsonMember> parse_json_members(const std::string& text);

}  // namespace osprey::util
