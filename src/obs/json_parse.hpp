#pragma once
/// \file json_parse.hpp
/// Minimal recursive-descent JSON parser — just enough to read back our
/// own artifacts (BENCH_*.json, journal NDJSON lines) for the bench
/// regression gate and round-trip tests.  Objects preserve insertion
/// order, matching the deterministic writer, so parse→flatten→compare is
/// stable.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rasc::obs {

class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_object() const noexcept { return type_ == Type::kObject; }
  bool is_array() const noexcept { return type_ == Type::kArray; }

  bool as_bool() const noexcept { return bool_; }
  double as_number() const noexcept { return number_; }
  const std::string& as_string() const noexcept { return string_; }
  const std::vector<JsonValue>& items() const noexcept { return items_; }
  /// Insertion-ordered key/value pairs.
  const std::vector<std::pair<std::string, JsonValue>>& members() const noexcept {
    return members_;
  }

  /// nullptr when absent or when this is not an object.
  const JsonValue* find(std::string_view key) const;

  std::vector<JsonValue>& items() noexcept { return items_; }
  std::vector<std::pair<std::string, JsonValue>>& members() noexcept { return members_; }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Deepest nesting of arrays and objects parse_json accepts (a top-level
/// `[]` is depth 1).  The parser recurses once per level, so deeper input
/// is a parse error rather than a stack overflow.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parse one JSON document.  On failure returns nullopt and, if `error` is
/// non-null, stores a message with the byte offset.  Trailing whitespace
/// is allowed; trailing garbage and nesting past kMaxJsonDepth are errors.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

}  // namespace rasc::obs
