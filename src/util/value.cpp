#include "util/value.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

namespace osprey::util {

Value Value::from_doubles(const std::vector<double>& xs) {
  ValueArray arr;
  arr.reserve(xs.size());
  for (double x : xs) arr.emplace_back(x);
  return Value(std::move(arr));
}

std::vector<double> Value::to_doubles() const {
  const ValueArray& arr = as_array();
  std::vector<double> out;
  out.reserve(arr.size());
  for (const Value& v : arr) out.push_back(v.as_double());
  return out;
}

bool Value::as_bool() const {
  OSPREY_REQUIRE(is_bool(), "value is not a bool");
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(data_);
  if (is_double()) {
    double d = std::get<double>(data_);
    OSPREY_REQUIRE(d == std::floor(d), "double is not integral");
    // [-2^63, 2^63): both bounds are exact doubles, and ±inf fails.
    OSPREY_REQUIRE(d >= -0x1p63 && d < 0x1p63, "double is out of int64 range");
    return static_cast<std::int64_t>(d);
  }
  throw InvalidArgument("value is not an integer");
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(data_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  throw InvalidArgument("value is not a number");
}

const std::string& Value::as_string() const {
  OSPREY_REQUIRE(is_string(), "value is not a string");
  return std::get<std::string>(data_);
}

const ValueArray& Value::as_array() const {
  OSPREY_REQUIRE(is_array(), "value is not an array");
  return std::get<ValueArray>(data_);
}

ValueArray& Value::as_array() {
  OSPREY_REQUIRE(is_array(), "value is not an array");
  return std::get<ValueArray>(data_);
}

const ValueObject& Value::as_object() const {
  OSPREY_REQUIRE(is_object(), "value is not an object");
  return std::get<ValueObject>(data_);
}

ValueObject& Value::as_object() {
  OSPREY_REQUIRE(is_object(), "value is not an object");
  return std::get<ValueObject>(data_);
}

const Value& Value::at(const std::string& key) const {
  const ValueObject& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw NotFound("missing key: " + key);
  return it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = ValueObject{};
  return as_object()[key];
}

bool Value::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const Value& Value::at(std::size_t index) const {
  const ValueArray& arr = as_array();
  OSPREY_REQUIRE(index < arr.size(), "array index out of range");
  return arr[index];
}

std::size_t Value::size() const {
  if (is_array()) return std::get<ValueArray>(data_).size();
  if (is_object()) return std::get<ValueObject>(data_).size();
  throw InvalidArgument("size() on non-container value");
}

double Value::get_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::int64_t Value::get_or(const std::string& key,
                           std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

std::string Value::get_or(const std::string& key,
                          const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

/// Appends `s` as a JSON string literal: runs that need no escaping
/// are copied whole.
void append_json_string(std::string_view s, std::string& out) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      char buf[8];
      int n = std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  out.append(s, run, std::string_view::npos);
  out += '"';
}

namespace {

void write_json(const Value& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    char buf[24];  // holds any int64
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v.as_int()).ptr);
  } else if (v.is_double()) {
    double d = v.as_double();
    if (std::isnan(d)) {
      out += "null";  // JSON has no NaN; match common serializers
    } else if (std::isinf(d)) {
      // JSON has no infinity either; an overflowing literal parses back
      // to it (parse_number uses strtod semantics).
      out += d > 0 ? "1e999" : "-1e999";
    } else {
      char buf[32];
      int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
      std::string_view digits(buf, static_cast<std::size_t>(n));
      out += digits;
      // Keep a trailing ".0" marker so doubles round-trip as doubles.
      if (digits.find_first_of(".eE") == std::string_view::npos) out += ".0";
    }
  } else if (v.is_string()) {
    append_json_string(v.as_string(), out);
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const Value& e : v.as_array()) {
      if (!first) out += ',';
      first = false;
      write_json(e, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [k, e] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      append_json_string(k, out);
      out += ':';
      write_json(e, out);
    }
    out += '}';
  }
}

/// Recursive-descent JSON parser over a string with an index cursor.
/// `parse_value<true>` builds what it reads; `parse_value<false>` runs
/// the same lexer and the same string, escape and number checks but
/// builds nothing, so a caller can validate a subtree it does not need.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = parse_value<true>();
    expect_end();
    return v;
  }

  std::map<std::string, JsonMember> members() {
    skip_ws();
    if (peek() != '{') {
      parse_value<false>();
      expect_end();
      throw InvalidArgument("value is not an object");
    }
    std::map<std::string, JsonMember> out;
    parse_object<true>([&](std::string key) {
      JsonMember member;
      skip_ws();
      if (peek() == '[') {
        member.value = Value(ValueArray{});
        parse_array([&] {
          parse_value<false>();
          ++member.size;
        });
      } else if (peek() == '{') {
        member.value = Value(ValueObject{});
        std::set<std::string> keys;
        parse_object<true>([&](std::string inner) {
          keys.insert(std::move(inner));
          parse_value<false>();
        });
        member.size = keys.size();
      } else {
        member.value = parse_value<true>();
      }
      out[std::move(key)] = std::move(member);
    });
    expect_end();
    return out;
  }

 private:
  void expect_end() {
    skip_ws();
    OSPREY_REQUIRE(pos_ == text_.size(), "trailing characters after JSON");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    OSPREY_REQUIRE(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    OSPREY_REQUIRE(next() == c, std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  template <bool kBuild>
  Value parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{') {
      ValueObject obj;
      parse_object<kBuild>([&](std::string key) {
        if constexpr (kBuild) {
          obj[std::move(key)] = parse_value<true>();
        } else {
          parse_value<false>();
        }
      });
      return kBuild ? Value(std::move(obj)) : Value();
    }
    if (c == '[') {
      ValueArray arr;
      parse_array([&] {
        if constexpr (kBuild) {
          arr.push_back(parse_value<true>());
        } else {
          parse_value<false>();
        }
      });
      return kBuild ? Value(std::move(arr)) : Value();
    }
    if (c == '"') {
      std::string s;
      parse_string(kBuild ? &s : nullptr);
      return kBuild ? Value(std::move(s)) : Value();
    }
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value(nullptr);
    return parse_number();
  }

  /// Reads one string literal, decoding it into `out` unless it is null.
  void parse_string(std::string* out) {
    expect('"');
    while (true) {
      // Everything up to the next quote or backslash is taken verbatim.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\') {
        ++pos_;
      }
      if (out != nullptr) out->append(text_, run, pos_ - run);
      OSPREY_REQUIRE(pos_ < text_.size(), "unterminated string");
      if (text_[pos_++] == '"') break;
      OSPREY_REQUIRE(pos_ < text_.size(), "unterminated escape");
      char e = text_[pos_++];
      char decoded = 0;
      switch (e) {
        case '"': decoded = '"'; break;
        case '\\': decoded = '\\'; break;
        case '/': decoded = '/'; break;
        case 'n': decoded = '\n'; break;
        case 'r': decoded = '\r'; break;
        case 't': decoded = '\t'; break;
        case 'b': decoded = '\b'; break;
        case 'f': decoded = '\f'; break;
        case 'u': {
          OSPREY_REQUIRE(pos_ + 4 <= text_.size(), "bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else throw InvalidArgument("bad hex digit in \\u escape");
          }
          if (out == nullptr) continue;
          // Encode as UTF-8 (basic multilingual plane only).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          continue;
        }
        default:
          throw InvalidArgument("bad escape character");
      }
      if (out != nullptr) *out += decoded;
    }
  }

  /// Numbers are converted in both modes: the conversion is the check.
  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    OSPREY_REQUIRE(pos_ > start, "expected a number");
    std::string tok = text_.substr(start, pos_ - start);
    if (is_double) {
      // strtod, not stod: underflow yields the subnormal (or zero) and
      // overflow yields +-infinity instead of throwing, so every double
      // to_json writes reads back bit-exactly.
      char* end = nullptr;
      double d = std::strtod(tok.c_str(), &end);
      OSPREY_REQUIRE(end == tok.c_str() + tok.size(),
                     "malformed number: " + tok);
      return Value(d);
    }
    try {
      std::size_t used = 0;
      std::int64_t i = std::stoll(tok, &used);
      OSPREY_REQUIRE(used == tok.size(), "malformed number: " + tok);
      return Value(i);
    } catch (const InvalidArgument&) {
      throw;
    } catch (const std::exception&) {
      throw InvalidArgument("malformed number: " + tok);
    }
  }

  /// Reads '[' elements ']', calling `on_element` to read each element.
  template <class OnElement>
  void parse_array(OnElement&& on_element) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      on_element();
      skip_ws();
      char c = next();
      if (c == ']') break;
      OSPREY_REQUIRE(c == ',', "expected ',' or ']' in array");
    }
  }

  /// Reads '{' members '}', calling `on_member(key)` to read each value
  /// after its key and ':'. Keys are decoded only when kKeys.
  template <bool kKeys, class OnMember>
  void parse_object(OnMember&& on_member) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      std::string key;
      parse_string(kKeys ? &key : nullptr);
      skip_ws();
      expect(':');
      on_member(std::move(key));
      skip_ws();
      char c = next();
      if (c == '}') break;
      OSPREY_REQUIRE(c == ',', "expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Value::to_json() const {
  std::string out;
  write_json(*this, out);
  return out;
}

Value Value::parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

std::map<std::string, JsonMember> parse_json_members(const std::string& text) {
  return JsonParser(text).members();
}

}  // namespace osprey::util
