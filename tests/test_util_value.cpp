#include "util/value.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "util/error.hpp"

namespace ou = osprey::util;

TEST(Value, DefaultIsNull) {
  ou::Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_object());
}

TEST(Value, ScalarAccessors) {
  EXPECT_TRUE(ou::Value(true).as_bool());
  EXPECT_EQ(ou::Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(ou::Value(2.5).as_double(), 2.5);
  EXPECT_EQ(ou::Value("hi").as_string(), "hi");
}

TEST(Value, IntCoercesToDouble) {
  ou::Value v(7);
  EXPECT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.as_double(), 7.0);
}

TEST(Value, IntegralDoubleCoercesToInt) {
  EXPECT_EQ(ou::Value(3.0).as_int(), 3);
  EXPECT_THROW(ou::Value(3.5).as_int(), ou::InvalidArgument);
}

TEST(Value, AsIntRejectsDoublesOutsideInt64) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ou::Value(1e19).as_int(), ou::InvalidArgument);
  EXPECT_THROW(ou::Value(-1e19).as_int(), ou::InvalidArgument);
  EXPECT_THROW(ou::Value(inf).as_int(), ou::InvalidArgument);
  EXPECT_THROW(ou::Value(-inf).as_int(), ou::InvalidArgument);
  // 2^63 is one past INT64_MAX; -2^63 is INT64_MIN itself.
  EXPECT_THROW(ou::Value(9223372036854775808.0).as_int(),
               ou::InvalidArgument);
  EXPECT_EQ(ou::Value(-9223372036854775808.0).as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(
      ou::Value::parse_json(R"({"round":1e19})").at("round").as_int(),
      ou::InvalidArgument);
}

TEST(Value, WrongTypeThrows) {
  ou::Value v("text");
  EXPECT_THROW(v.as_bool(), ou::InvalidArgument);
  EXPECT_THROW(v.as_int(), ou::InvalidArgument);
  EXPECT_THROW(v.as_array(), ou::InvalidArgument);
}

TEST(Value, ObjectInsertAndLookup) {
  ou::Value v;
  v["a"] = ou::Value(1);
  v["b"] = ou::Value("x");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_TRUE(v.contains("b"));
  EXPECT_FALSE(v.contains("c"));
  EXPECT_THROW(v.at("c"), ou::NotFound);
}

TEST(Value, GetOrDefaults) {
  ou::Value v;
  v["x"] = ou::Value(1.5);
  EXPECT_DOUBLE_EQ(v.get_or("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(v.get_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.get_or("missing", std::int64_t{7}), 7);
  EXPECT_EQ(v.get_or("missing", std::string("d")), "d");
}

TEST(Value, ArrayAccess) {
  ou::ValueArray arr{ou::Value(1), ou::Value(2), ou::Value(3)};
  ou::Value v(arr);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(std::size_t{1}).as_int(), 2);
  EXPECT_THROW(v.at(std::size_t{3}), ou::InvalidArgument);
}

TEST(Value, FromToDoubles) {
  std::vector<double> xs{1.0, 2.5, -3.0};
  ou::Value v = ou::Value::from_doubles(xs);
  EXPECT_EQ(v.to_doubles(), xs);
}

TEST(Value, JsonRoundTripScalars) {
  for (const std::string json :
       {"null", "true", "false", "42", "-17", "2.5", "\"hello\""}) {
    ou::Value v = ou::Value::parse_json(json);
    EXPECT_EQ(ou::Value::parse_json(v.to_json()), v) << json;
  }
}

TEST(Value, JsonRoundTripNested) {
  ou::Value v;
  v["name"] = ou::Value("O'Brien");
  v["population"] = ou::Value(std::int64_t{1300000});
  v["weights"] = ou::Value::from_doubles({0.25, 0.75});
  ou::Value nested;
  nested["deep"] = ou::Value(true);
  v["meta"] = nested;
  ou::Value round = ou::Value::parse_json(v.to_json());
  EXPECT_EQ(round, v);
}

TEST(Value, JsonEscapes) {
  ou::Value v(std::string("line1\nline2\t\"quoted\"\\slash"));
  ou::Value round = ou::Value::parse_json(v.to_json());
  EXPECT_EQ(round.as_string(), v.as_string());
}

TEST(Value, JsonParseUnicodeEscape) {
  ou::Value v = ou::Value::parse_json("\"a\\u0041b\"");
  EXPECT_EQ(v.as_string(), "aAb");
}

TEST(Value, JsonParseWhitespace) {
  ou::Value v = ou::Value::parse_json("  { \"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(Value, JsonMalformedThrows) {
  for (const std::string bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1}extra"}) {
    EXPECT_THROW(ou::Value::parse_json(bad), ou::InvalidArgument) << bad;
  }
}

TEST(Value, JsonDoubleKeepsDoubleness) {
  ou::Value v = ou::Value::parse_json(ou::Value(2.0).to_json());
  EXPECT_TRUE(v.is_double());
}

TEST(Value, DeterministicSerialization) {
  ou::Value a;
  a["z"] = ou::Value(1);
  a["a"] = ou::Value(2);
  ou::Value b;
  b["a"] = ou::Value(2);
  b["z"] = ou::Value(1);
  EXPECT_EQ(a.to_json(), b.to_json());  // ordered keys
}

// The writer's exact bytes are a contract: checksums, WAL records and
// traces are computed over them.
TEST(Value, ToJsonGoldenBytes) {
  ou::Value text(std::string("\x01\x1f\"\\\n\r\t\x7f\xc3\xa9z"));
  EXPECT_EQ(text.to_json(), "\"\\u0001\\u001f\\\"\\\\\\n\\r\\t\x7f\xc3\xa9z\"");

  ou::ValueArray numbers;
  numbers.emplace_back(std::numeric_limits<std::int64_t>::min());
  numbers.emplace_back(std::numeric_limits<std::int64_t>::max());
  numbers.emplace_back(std::int64_t{0});
  numbers.emplace_back(1.0);
  numbers.emplace_back(0.1);
  numbers.emplace_back(1e300);
  numbers.emplace_back(-0.0);
  numbers.emplace_back(std::nan(""));
  EXPECT_EQ(ou::Value(numbers).to_json(),
            "[-9223372036854775808,9223372036854775807,0,1.0,"
            "0.10000000000000001,1.0000000000000001e+300,-0.0,null]");

  ou::Value nested;
  nested["a"] = ou::Value(ou::ValueArray{});
  nested["b"] = ou::Value(ou::ValueObject{});
  nested["c"] = ou::Value(ou::ValueArray{ou::Value(ou::ValueArray{}),
                                         ou::Value(ou::ValueObject{})});
  nested["d\n"] = ou::Value(nullptr);
  nested["e"] = ou::Value(false);
  nested["f"] = ou::Value(true);
  EXPECT_EQ(nested.to_json(),
            "{\"a\":[],\"b\":{},\"c\":[[],{}],\"d\\n\":null,\"e\":false,"
            "\"f\":true}");
}

namespace {

/// splitmix64 stream for the seeded round-trip property.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::string random_text(Mix& mix) {
  std::string s(mix.below(12), '\0');
  for (char& c : s) {
    // Mostly printable ASCII, with control characters, the escaped
    // characters and raw high bytes mixed in.
    std::uint64_t pick = mix.below(8);
    if (pick == 0) {
      c = static_cast<char>(mix.below(0x20));
    } else if (pick == 1) {
      c = static_cast<char>(0x80 + mix.below(0x80));
    } else if (pick == 2) {
      c = "\"\\/\x7f"[mix.below(4)];
    } else {
      c = static_cast<char>(0x20 + mix.below(0x5f));
    }
  }
  return s;
}

double random_double(Mix& mix) {
  switch (mix.below(6)) {
    case 0:
      return static_cast<double>(static_cast<std::int64_t>(mix.below(2001)) -
                                 1000);
    case 1:
      return (static_cast<double>(mix.next() >> 11) / 9007199254740992.0 -
              0.5) * 2e6;
    case 2: {
      // Normal magnitudes across the exponent range.
      double m = 1.0 + static_cast<double>(mix.next() >> 11) /
                           9007199254740992.0;
      int e = static_cast<int>(mix.below(2000)) - 1000;
      return (mix.below(2) == 0 ? 1 : -1) * std::ldexp(m, e);
    }
    case 3: {
      // Subnormals, down to the smallest one (one raw mantissa bit).
      const std::uint64_t mantissa =
          (mix.next() >> (12 + mix.below(52))) | 1;
      const double d = std::bit_cast<double>(mantissa);
      return mix.below(2) == 0 ? d : -d;
    }
    case 4:
      return mix.below(2) == 0 ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
    default:
      return mix.below(2) == 0 ? -0.0 : std::nan("");
  }
}

ou::Value random_value(Mix& mix, int depth) {
  std::uint64_t kind = mix.below(depth > 0 ? 7 : 5);
  switch (kind) {
    case 0:
      return ou::Value(nullptr);
    case 1:
      return ou::Value(mix.below(2) == 0);
    case 2:
      return ou::Value(static_cast<std::int64_t>(mix.next()));
    case 3:
      return ou::Value(random_double(mix));
    case 4:
      return ou::Value(random_text(mix));
    case 5: {
      ou::ValueArray arr;
      for (std::uint64_t n = mix.below(5); n > 0; --n) {
        arr.push_back(random_value(mix, depth - 1));
      }
      return ou::Value(std::move(arr));
    }
    default: {
      ou::ValueObject obj;
      for (std::uint64_t n = mix.below(5); n > 0; --n) {
        obj[random_text(mix)] = random_value(mix, depth - 1);
      }
      return ou::Value(std::move(obj));
    }
  }
}

}  // namespace

TEST(Value, ToJsonParseRoundTripIsStable) {
  Mix mix{20250521};
  for (int i = 0; i < 20000; ++i) {
    const ou::Value v = random_value(mix, 3);
    const std::string json = v.to_json();
    ASSERT_EQ(ou::Value::parse_json(json).to_json(), json) << "value " << i;
  }
  // Every non-NaN double reads back bit-exactly, subnormals and
  // infinities included (NaN is written as null).
  for (int i = 0; i < 20000; ++i) {
    const double d = random_double(mix);
    if (std::isnan(d)) continue;
    const std::string json = ou::Value(d).to_json();
    const ou::Value back = ou::Value::parse_json(json);
    ASSERT_TRUE(back.is_double()) << json;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back.as_double()),
              std::bit_cast<std::uint64_t>(d))
        << json;
  }
  EXPECT_EQ(ou::Value(std::numeric_limits<double>::infinity()).to_json(),
            "1e999");
  EXPECT_EQ(ou::Value(-std::numeric_limits<double>::infinity()).to_json(),
            "-1e999");
  EXPECT_EQ(ou::Value::parse_json("1e-310").as_double(), 1e-310);
  EXPECT_EQ(ou::Value::parse_json("1e-400").as_double(), 0.0);
}

TEST(Value, JsonMembersMatchTheParsedTree) {
  Mix mix{20261019};
  for (int i = 0; i < 5000; ++i) {
    ou::ValueObject obj;
    for (std::uint64_t n = mix.below(6); n > 0; --n) {
      obj[random_text(mix)] = random_value(mix, 3);
    }
    const std::string json = ou::Value(std::move(obj)).to_json();
    const std::map<std::string, ou::JsonMember> members =
        ou::parse_json_members(json);
    const ou::Value tree = ou::Value::parse_json(json);
    ASSERT_EQ(members.size(), tree.size()) << json;
    for (const auto& [key, value] : tree.as_object()) {
      const ou::JsonMember& member = members.at(key);
      if (value.is_array() || value.is_object()) {
        EXPECT_EQ(member.value.is_array(), value.is_array()) << json;
        EXPECT_EQ(member.value.size(), 0u) << json;
        EXPECT_EQ(member.size, value.size()) << json;
      } else {
        EXPECT_EQ(member.value.to_json(), value.to_json()) << json;
        EXPECT_EQ(member.size, 0u) << json;
      }
    }
  }
  // A repeated key keeps its last value; an object member counts its
  // distinct keys.
  const auto repeated =
      ou::parse_json_members(R"({"a":1,"a":{"x":1,"x":2,"y":3},"b":[[],{}]})");
  EXPECT_EQ(repeated.at("a").size, 2u);
  EXPECT_TRUE(repeated.at("a").value.is_object());
  EXPECT_EQ(repeated.at("b").size, 2u);
  // Non-objects and malformed text throw, as parse_json does.
  EXPECT_THROW(ou::parse_json_members("[1]"), ou::InvalidArgument);
  EXPECT_THROW(ou::parse_json_members(R"({"a":[1,]})"), ou::InvalidArgument);
  EXPECT_THROW(ou::parse_json_members(R"({"a":["\q"]})"), ou::InvalidArgument);
  EXPECT_THROW(ou::parse_json_members(R"({"a":1} x)"), ou::InvalidArgument);
}
