#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bvc::obs {

namespace {

const std::string kEmptyString;

/// Encodes `codepoint` as UTF-8 (the \uXXXX decode target).
void append_utf8(std::string& out, unsigned long codepoint) {
  if (codepoint < 0x80) {
    out += static_cast<char>(codepoint);
  } else if (codepoint < 0x800) {
    out += static_cast<char>(0xc0 | (codepoint >> 6));
    out += static_cast<char>(0x80 | (codepoint & 0x3f));
  } else if (codepoint < 0x10000) {
    out += static_cast<char>(0xe0 | (codepoint >> 12));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (codepoint & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (codepoint >> 18));
    out += static_cast<char>(0x80 | ((codepoint >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (codepoint & 0x3f));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse_document() {
    std::optional<Json> value = parse_value(0);
    if (!value) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return std::nullopt;  // trailing garbage
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  std::optional<std::string> parse_string_body() {
    // Caller consumed the opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return std::nullopt;  // raw control characters must be escaped
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return std::nullopt;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const std::optional<unsigned long> unit = parse_hex4();
          if (!unit) {
            return std::nullopt;
          }
          unsigned long codepoint = *unit;
          if (codepoint >= 0xd800 && codepoint <= 0xdbff) {
            // High surrogate: require the paired low surrogate.
            if (!literal("\\u")) {
              return std::nullopt;
            }
            const std::optional<unsigned long> low = parse_hex4();
            if (!low || *low < 0xdc00 || *low > 0xdfff) {
              return std::nullopt;
            }
            codepoint =
                0x10000 + ((codepoint - 0xd800) << 10) + (*low - 0xdc00);
          } else if (codepoint >= 0xdc00 && codepoint <= 0xdfff) {
            return std::nullopt;  // unpaired low surrogate
          }
          append_utf8(out, codepoint);
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<unsigned long> parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      return std::nullopt;
    }
    unsigned long value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned long>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned long>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned long>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    return value;
  }

  std::optional<Json> parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    const std::size_t digits_begin = pos_;
    while (pos_ < text_.size() && std::isdigit(
                                      static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits_begin) {
      return std::nullopt;  // "-" alone, or no digits at all
    }
    // JSON forbids leading zeros ("01"); strtod would accept them.
    if (pos_ - digits_begin > 1 && text_[digits_begin] == '0') {
      return std::nullopt;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac_begin = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac_begin) {
        return std::nullopt;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp_begin = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp_begin) {
        return std::nullopt;
      }
    }
    const std::string token(text_.substr(begin, pos_ - begin));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      return std::nullopt;  // overflowed to inf
    }
    return Json::number(value);
  }

  std::optional<Json> parse_value(std::size_t depth) {
    if (depth > Json::kMaxDepth) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      Json object = Json::object();
      if (eat('}')) {
        return object;
      }
      while (true) {
        if (!eat('"')) {
          return std::nullopt;
        }
        std::optional<std::string> key = parse_string_body();
        if (!key || !eat(':')) {
          return std::nullopt;
        }
        std::optional<Json> value = parse_value(depth + 1);
        if (!value) {
          return std::nullopt;
        }
        object.set(*std::move(key), *std::move(value));
        if (eat(',')) {
          continue;
        }
        if (eat('}')) {
          return object;
        }
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      Json array = Json::array();
      if (eat(']')) {
        return array;
      }
      while (true) {
        std::optional<Json> value = parse_value(depth + 1);
        if (!value) {
          return std::nullopt;
        }
        array.push_back(*std::move(value));
        if (eat(',')) {
          continue;
        }
        if (eat(']')) {
          return array;
        }
        return std::nullopt;
      }
    }
    if (c == '"') {
      ++pos_;
      std::optional<std::string> body = parse_string_body();
      if (!body) {
        return std::nullopt;
      }
      return Json::string(*std::move(body));
    }
    if (c == 't') {
      return literal("true") ? std::optional<Json>(Json::boolean(true))
                             : std::nullopt;
    }
    if (c == 'f') {
      return literal("false") ? std::optional<Json>(Json::boolean(false))
                              : std::nullopt;
    }
    if (c == 'n') {
      return literal("null") ? std::optional<Json>(Json()) : std::nullopt;
    }
    return parse_number();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void append_value(std::string& out, const Json& value) {
  switch (value.type()) {
    case Json::Type::kNull:
      out += "null";
      return;
    case Json::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Json::Type::kNumber:
      append_json_number(out, value.as_number());
      return;
    case Json::Type::kString:
      append_json_escaped(out, value.as_string());
      return;
    case Json::Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        append_value(out, value.at(i));
      }
      out += ']';
      return;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) {
          out += ',';
        }
        first = false;
        append_json_escaped(out, key);
        out += ':';
        append_value(out, member);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string json_quoted(std::string_view text) {
  std::string out;
  append_json_escaped(out, text);
  return out;
}

void append_json_number(std::string& out, double value) {
  char buffer[32];
  if (!std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), "%g", value);
    append_json_escaped(out, buffer);
    return;
  }
  // Integral values (job counts, statuses, byte sizes) take an integer
  // fast path that prints the same bytes %.17g would. Range check FIRST:
  // casting a double outside long long range to long long is undefined
  // behavior. -0.0 stays on the %.17g path, which keeps its sign.
  if (value >= -9.0e15 && value <= 9.0e15 &&
      value == static_cast<double>(static_cast<long long>(value)) &&
      !(value == 0.0 && std::signbit(value))) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  out += buffer;
}

Json Json::boolean(bool value) {
  Json json;
  json.type_ = Type::kBool;
  json.bool_ = value;
  return json;
}

Json Json::number(double value) {
  Json json;
  json.type_ = Type::kNumber;
  json.number_ = value;
  return json;
}

Json Json::string(std::string value) {
  Json json;
  json.type_ = Type::kString;
  json.string_ = std::move(value);
  return json;
}

Json Json::array() {
  Json json;
  json.type_ = Type::kArray;
  return json;
}

Json Json::object() {
  Json json;
  json.type_ = Type::kObject;
  return json;
}

bool Json::as_bool(bool fallback) const noexcept {
  return type_ == Type::kBool ? bool_ : fallback;
}

double Json::as_number(double fallback) const noexcept {
  return type_ == Type::kNumber ? number_ : fallback;
}

const std::string& Json::as_string() const noexcept {
  return type_ == Type::kString ? string_ : kEmptyString;
}

void Json::push_back(Json value) { items_.push_back(std::move(value)); }

const Json* Json::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

double Json::number_or(std::string_view key, double fallback) const noexcept {
  const Json* value = find(key);
  return value != nullptr && value->is_number() ? value->as_number() : fallback;
}

std::string Json::string_or(std::string_view key,
                            std::string_view fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string(fallback);
}

std::string Json::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace bvc::obs
