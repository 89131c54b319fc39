#include "src/obs/json_parse.hpp"

#include <cctype>
#include <cstdlib>

namespace rasc::obs {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    std::optional<JsonValue> v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after JSON value");
        v = std::nullopt;
      }
    }
    if (!v && error) *error = error_ + " at offset " + std::to_string(pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("nesting deeper than kMaxJsonDepth");
          return std::nullopt;
        }
        ++depth_;
        std::optional<JsonValue> nested =
            text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return std::nullopt;
        return JsonValue::make_string(std::move(s));
      }
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        break;
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        break;
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        break;
      default:
        return parse_number();
    }
    fail("invalid literal");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::make_object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> value = parse_value();
      if (!value) return std::nullopt;
      obj.members().emplace_back(std::move(key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_array() {
    ++pos_;  // '['
    JsonValue arr = JsonValue::make_array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      std::optional<JsonValue> value = parse_value();
      if (!value) return std::nullopt;
      arr.items().push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // UTF-8 encode the code point.  Surrogate pairs are not needed by
          // our writers (json_escape only \u-escapes control characters).
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
        default:
          return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  std::optional<JsonValue> parse_number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
      return std::nullopt;
    }
    std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open around pos_
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace rasc::obs
