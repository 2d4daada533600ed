#include "obs/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/error.hpp"

namespace pamo::obs::json {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\t': escape = "\\t"; break;
      case '\r': escape = "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      std::array<char, 8> buf{};
      std::snprintf(buf.data(), buf.size(), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf.data();
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void append_uint(std::string& out, std::uint64_t u) {
  std::array<char, 24> buf{};
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), u);
  out.append(buf.data(), result.ptr);
}

void append_double(std::string& out, double d) {
  PAMO_CHECK(std::isfinite(d), "JSON export requires finite numbers");
  std::array<char, 32> buf{};
  // Shortest round-trip representation: locale-independent and fixed for a
  // given bit pattern, which is what makes exports byte-stable.
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  out.append(buf.data(), result.ptr);
}

}  // namespace

struct Value::Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t depth = 0;  // open arrays/objects around pos

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos) + ": " +
                what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.compare(pos, lit.size(), lit) != 0) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      const std::size_t run = pos;
      while (pos < text.size() && text[pos] != '"' && text[pos] != '\\') {
        ++pos;
      }
      out.append(text.data() + run, pos - run);
      if (pos >= text.size()) fail("unterminated string");
      if (text[pos++] == '"') return out;
      if (pos >= text.size()) fail("unterminated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (std::size_t i = 0; i < 4; ++i) {
            const char h = text[pos + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          pos += 4;
          // Exports only ever escape control characters; reject the rest
          // rather than implementing UTF-16 surrogate handling.
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c >= '0' && c <= '9') {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos;
      } else {
        break;
      }
    }
    const std::string_view token = text.substr(start, pos - start);
    if (token.empty() || token == "-") fail("bad number");
    const char* first = token.data();
    const char* last = first + token.size();
    if (integral && token[0] != '-') {
      std::uint64_t u = 0;
      const auto result = std::from_chars(first, last, u);
      if (result.ec == std::errc() && result.ptr == last) return Value(u);
    }
    double d = 0.0;
    const auto result = std::from_chars(first, last, d);
    if (result.ec != std::errc() || result.ptr != last) {
      fail("bad number '" + std::string(token) + "'");
    }
    return Value(d);
  }

  Value parse_object() {
    Value value = Value::object();
    auto& members = std::get<Object>(value.data_);
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // Strict grammar: a repeated key is a malformed document, not a
      // last-wins overwrite — silent overwrites would let a corrupted
      // (e.g. torn-and-reconcatenated) checkpoint parse cleanly.
      for (const auto& member : members) {
        if (member.first == key) fail("duplicate object key '" + key + "'");
      }
      Value item = parse_value();
      members.emplace_back(std::move(key), std::move(item));
      skip_ws();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return value;
    }
  }

  Value parse_array() {
    Value value = Value::array();
    auto& items = std::get<Array>(value.data_);
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return value;
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return value;
    }
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxParseDepth) {
        fail("nesting deeper than " + std::to_string(kMaxParseDepth));
      }
      ++pos;
      ++depth;
      Value value = c == '{' ? parse_object() : parse_array();
      --depth;
      return value;
    }
    switch (c) {
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        break;
      case 'f':
        if (consume_literal("false")) return Value(false);
        break;
      case 'n':
        if (consume_literal("null")) return Value();
        break;
      default:
        break;
    }
    return parse_number();  // rejects anything that is not a number either
  }
};

Value Value::array() {
  Value v;
  v.data_.emplace<Array>();
  return v;
}

Value Value::object() {
  Value v;
  v.data_.emplace<Object>();
  return v;
}

bool Value::as_bool() const {
  const bool* b = std::get_if<bool>(&data_);
  PAMO_CHECK(b != nullptr, "JSON value is not a bool");
  return *b;
}

std::uint64_t Value::as_uint() const {
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) return *u;
  const double* num = std::get_if<double>(&data_);
  PAMO_CHECK(num != nullptr, "JSON value is not a number");
  PAMO_CHECK(*num >= 0.0 && std::floor(*num) == *num && *num < 1.9e19,  // pamo-analyze: allow(float-eq)
             "JSON number is not an unsigned integer");
  return static_cast<std::uint64_t>(*num);
}

double Value::as_double() const {
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) {
    return static_cast<double>(*u);
  }
  const double* num = std::get_if<double>(&data_);
  PAMO_CHECK(num != nullptr, "JSON value is not a number");
  return *num;
}

const std::string& Value::as_string() const {
  const std::string* s = std::get_if<std::string>(&data_);
  PAMO_CHECK(s != nullptr, "JSON value is not a string");
  return *s;
}

const std::vector<Value>& Value::items() const {
  const Array* items = std::get_if<Array>(&data_);
  PAMO_CHECK(items != nullptr, "JSON value is not an array");
  return *items;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  const Object* members = std::get_if<Object>(&data_);
  PAMO_CHECK(members != nullptr, "JSON value is not an object");
  return *members;
}

void Value::push_back(Value v) {
  Array* items = std::get_if<Array>(&data_);
  PAMO_CHECK(items != nullptr, "push_back on a non-array JSON value");
  items->push_back(std::move(v));
}

void Value::set(const std::string& key, Value v) {
  Object* members = std::get_if<Object>(&data_);
  PAMO_CHECK(members != nullptr, "set on a non-object JSON value");
  for (auto& [k, existing] : *members) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members->emplace_back(key, std::move(v));
}

const Value* Value::find(const std::string& key) const {
  const Object* members = std::get_if<Object>(&data_);
  if (members == nullptr) return nullptr;
  for (const auto& [k, v] : *members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  PAMO_CHECK(v != nullptr, "JSON object is missing key '" + key + "'");
  return *v;
}

Value& Value::at(const std::string& key) {
  return const_cast<Value&>(std::as_const(*this).at(key));
}

void Value::dump_to(std::string& out) const {
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += std::get<bool>(data_) ? "true" : "false";
      break;
    case Kind::kUint:
      append_uint(out, std::get<std::uint64_t>(data_));
      break;
    case Kind::kNumber:
      append_double(out, std::get<double>(data_));
      break;
    case Kind::kString:
      append_escaped(out, std::get<std::string>(data_));
      break;
    case Kind::kArray: {
      const Array& items = std::get<Array>(data_);
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out.push_back(',');
        items[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      const Object& members = std::get<Object>(data_);
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out.push_back(',');
        append_escaped(out, members[i].first);
        out.push_back(':');
        members[i].second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Value Value::parse(const std::string& text) {
  Parser parser{text};
  Value v = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing characters");
  return v;
}

}  // namespace pamo::obs::json
