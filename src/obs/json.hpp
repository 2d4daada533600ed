// Minimal deterministic JSON for telemetry export.
//
// Why not a library: the container bakes in no JSON dependency, and the
// export needs properties general-purpose serializers don't promise —
// *insertion-ordered* object keys (exports list keys in one fixed schema
// order, never hash order) and *fixed* float formatting (std::to_chars
// shortest round-trip form, locale-independent), so the same record
// always serializes to the same bytes. Parsing is a strict recursive-
// descent pass over the same grammar; malformed input throws pamo::Error,
// and so does nesting deeper than kMaxParseDepth (a hostile file must
// not be able to exhaust the stack of whoever reads it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace pamo::obs::json {

/// Deepest array/object nesting Value::parse accepts. Every document the
/// repo writes nests under ten levels; a limit in the hundreds keeps the
/// parser's recursion a few kilobytes of stack.
inline constexpr std::size_t kMaxParseDepth = 256;

/// One JSON value. Objects preserve insertion order; numbers remember
/// whether they were written as unsigned integers so counters and
/// nanosecond timestamps round-trip exactly (doubles use shortest-form
/// to_chars, which also round-trips bit-for-bit).
class Value {
 public:
  enum class Kind { kNull, kBool, kUint, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(bool b) : data_(std::in_place_type<bool>, b) {}  // NOLINT
  Value(std::uint64_t u)                                    // NOLINT
      : data_(std::in_place_type<std::uint64_t>, u) {}
  Value(double d) : data_(std::in_place_type<double>, d) {}  // NOLINT
  Value(std::string s)                                       // NOLINT
      : data_(std::in_place_type<std::string>, std::move(s)) {}
  Value(const char* s)                                       // NOLINT
      : data_(std::in_place_type<std::string>, s) {}

  static Value array();
  static Value object();

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(data_.index()); }
  [[nodiscard]] bool is_number() const {
    return kind() == Kind::kUint || kind() == Kind::kNumber;
  }

  // Typed accessors; each throws pamo::Error on a kind mismatch (as_double
  // and as_uint accept either numeric kind, as_uint requiring an exact
  // non-negative integral value).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& items() const;  // array
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const;  // object

  /// Array append.
  void push_back(Value v);

  /// Object insert-or-assign; keeps first-insertion position.
  void set(const std::string& key, Value v);

  /// Object lookup; null when absent (or not an object).
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Object lookup that throws pamo::Error when `key` is absent. The
  /// mutable overload lets a reader move a member out of a parsed document.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] Value& at(const std::string& key);

  /// Serialize (no whitespace). Deterministic: same value, same bytes.
  [[nodiscard]] std::string dump() const;

  /// Strict parse of a complete JSON document; throws pamo::Error on any
  /// syntax error, duplicate object key, nesting deeper than
  /// kMaxParseDepth, or trailing garbage.
  static Value parse(const std::string& text);

 private:
  using Array = std::vector<Value>;
  using Object = std::vector<std::pair<std::string, Value>>;
  struct Parser;

  /// Appends the serialization to `out`: one buffer for the whole tree.
  void dump_to(std::string& out) const;

  // One alternative per Kind, in Kind's order, so kind() is the index
  // (40 bytes a node).
  std::variant<std::monostate, bool, std::uint64_t, double, std::string,
               Array, Object>
      data_;
};

}  // namespace pamo::obs::json
