// obs::json — deterministic serialization (insertion-ordered keys,
// shortest round-trip floats, exact uint64) and a strict parser.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"

namespace pamo::obs::json {
namespace {

TEST(Json, DumpPreservesInsertionOrder) {
  Value obj = Value::object();
  obj.set("zulu", Value(std::uint64_t{1}));
  obj.set("alpha", Value(std::uint64_t{2}));
  obj.set("mike", Value(std::uint64_t{3}));
  EXPECT_EQ(obj.dump(), R"({"zulu":1,"alpha":2,"mike":3})");
  // Re-assignment keeps the original position.
  obj.set("zulu", Value(std::uint64_t{9}));
  EXPECT_EQ(obj.dump(), R"({"zulu":9,"alpha":2,"mike":3})");
}

TEST(Json, ScalarsAndEscapes) {
  Value obj = Value::object();
  obj.set("null", Value());
  obj.set("t", Value(true));
  obj.set("f", Value(false));
  obj.set("s", Value("a\"b\\c\n\t\x01"));
  const std::string text = obj.dump();
  EXPECT_EQ(text,
            "{\"null\":null,\"t\":true,\"f\":false,"
            "\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
  const Value back = Value::parse(text);
  EXPECT_EQ(back.at("s").as_string(), "a\"b\\c\n\t\x01");
  EXPECT_TRUE(back.at("t").as_bool());
  EXPECT_EQ(back.at("null").kind(), Value::Kind::kNull);
}

TEST(Json, Uint64RoundTripsExactly) {
  // Values a double could not represent exactly must survive.
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  Value obj = Value::object();
  obj.set("ns", Value(big));
  const Value back = Value::parse(obj.dump());
  EXPECT_EQ(back.at("ns").as_uint(), big);
  EXPECT_EQ(back.at("ns").kind(), Value::Kind::kUint);
}

TEST(Json, DoublesUseShortestRoundTripForm) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-17, 6.02214076e23, 0.0,
                         -0.0, 1e-300, 123456.78901234567}) {
    Value val(v);
    const std::string text = val.dump();
    const Value back = Value::parse(text);
    EXPECT_EQ(back.as_double(), v) << text;
    // Determinism: dumping twice gives the same bytes.
    EXPECT_EQ(text, Value(v).dump());
  }
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(1.0).dump(), "1");
}

TEST(Json, NonFiniteNumbersThrowOnDump) {
  EXPECT_THROW((void)Value(std::numeric_limits<double>::infinity()).dump(),
               Error);
  EXPECT_THROW((void)Value(std::nan("")).dump(), Error);
}

TEST(Json, NestedArraysAndObjects) {
  Value root = Value::object();
  Value arr = Value::array();
  arr.push_back(Value(std::uint64_t{1}));
  Value inner = Value::object();
  inner.set("k", Value("v"));
  arr.push_back(std::move(inner));
  arr.push_back(Value::array());
  root.set("xs", std::move(arr));
  const std::string text = root.dump();
  EXPECT_EQ(text, R"({"xs":[1,{"k":"v"},[]]})");
  const Value back = Value::parse(text);
  const auto& items = back.at("xs").items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].as_uint(), 1u);
  EXPECT_EQ(items[1].at("k").as_string(), "v");
  EXPECT_TRUE(items[2].items().empty());
}

TEST(Json, ParseAcceptsWhitespaceAndNegativeNumbers) {
  const Value v = Value::parse(" { \"a\" : [ -1.5 , 2 ] ,\n\t\"b\": -3 } ");
  EXPECT_EQ(v.at("a").items()[0].as_double(), -1.5);
  EXPECT_EQ(v.at("a").items()[1].as_uint(), 2u);
  EXPECT_EQ(v.at("b").as_double(), -3.0);
}

TEST(Json, StrictParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "[1,]", "{\"a\":}", "{\"a\" 1}", "{'a':1}",
        "1 2", "tru", "\"unterminated", "{\"a\":1,}", "[1 2]", "nan",
        "+1", "--1", "\"bad\\x\"", "{\"a\":1}extra"}) {
    EXPECT_THROW((void)Value::parse(bad), Error) << bad;
  }
}

TEST(Json, StrictParserRejectsDuplicateObjectKeys) {
  // Regression: duplicate keys used to silently last-win. A repeated key
  // never comes out of the deterministic writer, so on the way back in it
  // is evidence of corruption (e.g. a mangled checkpoint) — reject it.
  for (const char* bad :
       {"{\"a\":1,\"a\":2}", "{\"a\":1,\"b\":2,\"a\":3}",
        "{\"out\":{\"k\":1,\"k\":1}}", "[{\"x\":0,\"x\":0}]"}) {
    EXPECT_THROW((void)Value::parse(bad), Error) << bad;
  }
  // Same key at different nesting levels is fine.
  const Value v = Value::parse("{\"a\":{\"a\":1},\"b\":{\"a\":2}}");
  EXPECT_EQ(v.at("a").at("a").as_uint(), 1u);
  EXPECT_EQ(v.at("b").at("a").as_uint(), 2u);
  // Programmatic set() keeps insert-or-assign semantics; only the parser
  // treats repetition as malformed input.
  Value obj = Value::object();
  obj.set("k", Value(std::uint64_t{1}));
  obj.set("k", Value(std::uint64_t{2}));
  EXPECT_EQ(obj.at("k").as_uint(), 2u);
}

TEST(Json, TypedAccessorsThrowOnKindMismatch) {
  const Value s("text");
  EXPECT_THROW((void)s.as_uint(), Error);
  EXPECT_THROW((void)s.as_double(), Error);
  EXPECT_THROW((void)s.items(), Error);
  const Value n(-1.0);
  EXPECT_THROW((void)n.as_uint(), Error);  // negative is not a uint
  EXPECT_EQ(Value(3.0).as_uint(), 3u);     // exact non-negative integral is
  const Value obj = Value::object();
  EXPECT_THROW((void)obj.at("missing"), Error);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

std::string nested(std::size_t depth, const std::string& open,
                   const std::string& leaf, const std::string& close) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += open;
  text += leaf;
  for (std::size_t i = 0; i < depth; ++i) text += close;
  return text;
}

TEST(Json, NestingDepthIsBounded) {
  // Regression: 100 000 unclosed '[' used to recurse until the stack ran
  // out (SIGSEGV) instead of throwing.
  EXPECT_THROW((void)Value::parse(std::string(100000, '[')), Error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)Value::parse(objects), Error);
  // Well-formed but too deep is rejected too; the limit itself parses.
  EXPECT_THROW(
      (void)Value::parse(nested(kMaxParseDepth + 1, "[", "1", "]")), Error);
  EXPECT_THROW((void)Value::parse(
                   nested(kMaxParseDepth + 1, "{\"a\":", "1", "}")),
               Error);
  const Value deepest = Value::parse(nested(kMaxParseDepth, "[", "1", "]"));
  const Value* v = &deepest;
  for (std::size_t i = 0; i < kMaxParseDepth; ++i) v = &v->items().at(0);
  EXPECT_EQ(v->as_uint(), 1u);
  EXPECT_NO_THROW(
      (void)Value::parse(nested(kMaxParseDepth, "{\"a\":", "null", "}")));
  // Depth counts nesting, not how many containers a document holds.
  std::string wide = "[";
  for (std::size_t i = 0; i < 4 * kMaxParseDepth; ++i) {
    wide += i == 0 ? "[[]]" : ",[[]]";
  }
  wide += "]";
  EXPECT_EQ(Value::parse(wide).items().size(), 4 * kMaxParseDepth);
}

// ---- byte-stability properties over generated trees ----

/// Finite doubles the writer must keep bit-for-bit: signed zero,
/// subnormals, integral values at and past 2^53, the extremes.
const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      std::numeric_limits<double>::min(),
      9007199254740992.0,  // 2^53
      9007199254740994.0,  // 2^53 + 2
      18446744073709551616.0,  // 2^64: integral, beyond uint64
      1e308,
      -1e308,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      0.1,
      -2.5,
      1.0 / 3.0};
  return values;
}

double generated_double(Rng& rng) {
  switch (rng.uniform_index(3)) {
    case 0:
      return edge_doubles()[rng.uniform_index(edge_doubles().size())];
    case 1: {
      // Any finite bit pattern: exercises every exponent and mantissa.
      while (true) {
        const double d = std::bit_cast<double>(rng.next_u64());
        if (std::isfinite(d)) return d;
      }
    }
    default:
      return rng.uniform(-1e6, 1e6);
  }
}

std::uint64_t generated_uint(Rng& rng) {
  static const std::uint64_t edges[] = {
      0, 1, 9007199254740992ull, 9007199254740993ull,
      std::numeric_limits<std::uint64_t>::max()};
  if (rng.uniform_index(2) == 0) return edges[rng.uniform_index(5)];
  return rng.next_u64() >> rng.uniform_index(64);
}

/// Any byte string: control characters, quotes, backslashes and bytes at
/// or above 0x80 included.
std::string generated_string(Rng& rng) {
  static const char specials[] = {'"', '\\', '\n', '\t', '\r', '\x01',
                                  '\x1f', '\x7f', '/'};
  std::string s(rng.uniform_index(12), '\0');
  for (char& c : s) {
    c = rng.uniform_index(3) == 0
            ? specials[rng.uniform_index(sizeof(specials))]
            : static_cast<char>(rng.uniform_index(256));
  }
  return s;
}

Value generated_value(Rng& rng, int depth) {
  const std::size_t kinds = depth == 0 ? 5 : 7;  // leaves only at depth 0
  switch (static_cast<Value::Kind>(rng.uniform_index(kinds))) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool:
      return Value(rng.uniform_index(2) == 0);
    case Value::Kind::kUint:
      return Value(generated_uint(rng));
    case Value::Kind::kNumber:
      return Value(generated_double(rng));
    case Value::Kind::kString:
      return Value(generated_string(rng));
    case Value::Kind::kArray: {
      Value arr = Value::array();
      const std::size_t n = rng.uniform_index(6);
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(generated_value(rng, depth - 1));
      }
      return arr;
    }
    case Value::Kind::kObject: {
      Value obj = Value::object();
      const std::size_t n = rng.uniform_index(6);
      for (std::size_t i = 0; i < n; ++i) {
        obj.set(generated_string(rng), generated_value(rng, depth - 1));
      }
      return obj;
    }
  }
  return Value();
}

/// A double below 2^64 whose shortest form is a bare digit string ("1",
/// "9007199254740992") is read back as an unsigned integer of the same
/// value: the one kind change the format makes, and a fixed point after
/// one round trip.
bool reads_back_as_uint(double d) {
  const std::string text = Value(d).dump();
  return text.find_first_not_of("0123456789") == std::string::npos &&
         d < 18446744073709551616.0;
}

void expect_same_tree(const Value& original, const Value& back,
                      const std::string& where) {
  if (original.kind() == Value::Kind::kNumber &&
      reads_back_as_uint(original.as_double())) {
    ASSERT_EQ(back.kind(), Value::Kind::kUint) << where;
  } else {
    ASSERT_EQ(back.kind(), original.kind()) << where;
  }
  switch (original.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      EXPECT_EQ(back.as_bool(), original.as_bool()) << where;
      break;
    case Value::Kind::kUint:
      EXPECT_EQ(back.as_uint(), original.as_uint()) << where;
      break;
    case Value::Kind::kNumber:
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.as_double()),
                std::bit_cast<std::uint64_t>(original.as_double()))
          << where;
      break;
    case Value::Kind::kString:
      EXPECT_EQ(back.as_string(), original.as_string()) << where;
      break;
    case Value::Kind::kArray: {
      ASSERT_EQ(back.items().size(), original.items().size()) << where;
      for (std::size_t i = 0; i < original.items().size(); ++i) {
        expect_same_tree(original.items()[i], back.items()[i],
                         where + "[" + std::to_string(i) + "]");
      }
      break;
    }
    case Value::Kind::kObject: {
      ASSERT_EQ(back.members().size(), original.members().size()) << where;
      for (std::size_t i = 0; i < original.members().size(); ++i) {
        EXPECT_EQ(back.members()[i].first, original.members()[i].first)
            << where;
        expect_same_tree(original.members()[i].second,
                         back.members()[i].second,
                         where + "." + std::to_string(i));
      }
      break;
    }
  }
}

TEST(JsonProperty, GeneratedTreesRoundTripByteForByte) {
  Rng rng(0x15017A81E);
  for (int trial = 0; trial < 400; ++trial) {
    const Value original = generated_value(rng, 4);
    const std::string text = original.dump();
    const Value back = Value::parse(text);
    ASSERT_EQ(back.dump(), text) << "trial " << trial;
    expect_same_tree(original, back, "trial " + std::to_string(trial));
    // One round trip reaches the fixed point, kinds included.
    const Value again = Value::parse(back.dump());
    expect_same_tree(back, again, "again " + std::to_string(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(JsonProperty, EdgeScalarsKeepTheirBytesAndKinds) {
  for (const double d : edge_doubles()) {
    const Value back = Value::parse(Value(d).dump());
    EXPECT_EQ(back.dump(), Value(d).dump());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.as_double()),
              std::bit_cast<std::uint64_t>(d))
        << Value(d).dump();
    EXPECT_EQ(back.kind(), reads_back_as_uint(d) ? Value::Kind::kUint
                                                 : Value::Kind::kNumber)
        << Value(d).dump();
  }
  EXPECT_EQ(Value(-0.0).dump(), "-0");
  EXPECT_TRUE(std::signbit(Value::parse("-0").as_double()));
  EXPECT_EQ(Value(9007199254740992.0).dump(), "9007199254740992");
  EXPECT_EQ(Value::parse("18446744073709551615").kind(), Value::Kind::kUint);
  EXPECT_EQ(Value::parse("18446744073709551616").kind(),
            Value::Kind::kNumber);  // past UINT64_MAX: read as a double
  std::string bytes;
  for (int c = 0; c < 256; ++c) bytes.push_back(static_cast<char>(c));
  const std::string text = Value(bytes).dump();
  EXPECT_EQ(Value::parse(text).as_string(), bytes);
  EXPECT_EQ(Value::parse(text).dump(), text);
}

}  // namespace
}  // namespace pamo::obs::json
