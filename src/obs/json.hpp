// The repo's one JSON codec: a small value type with a strict parser and a
// deterministic writer, plus the two writer primitives every other JSON
// emitter in the tree (journal lines, metrics, manifests, traces,
// timelines, the bvcd wire format) builds its output from.
//
// parse() either returns a fully validated document or nullopt: a
// malformed body is rejected before any field is read, which is the
// 400-vs-crash line the HTTP layer needs and the torn-line tolerance the
// checkpoint journal needs. Nesting is capped at kMaxDepth so a hostile
// body cannot blow the stack; UTF-8 passes through verbatim and \uXXXX
// escapes are decoded (surrogate pairs included). No comments, no
// NaN/Infinity literals.
//
// Writing is deterministic (object member order preserved), so output
// diffs cleanly and a record re-serialises to the same bytes:
//
//   * Escape rule (append_json_escaped): `"` and `\` get a backslash, every
//     control character below 0x20 is written as \u00XX, and all other
//     bytes pass through.
//   * Number rule (append_json_number): a finite value prints as %.17g,
//     which round-trips every double bit-exactly (subnormals and the sign
//     of -0 included); integral values print through an integer fast path
//     with the same bytes. JSON has no non-finite numbers, so inf and nan
//     print as their quoted %g spelling (e.g. "inf", "-inf", "nan"): the
//     output always parses, as a string where the value was not finite.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bvc::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parser recursion cap; deeper documents are rejected, not truncated.
  static constexpr std::size_t kMaxDepth = 64;

  Json() = default;  // null
  static Json boolean(bool value);
  static Json number(double value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  // Typed reads. Wrong-type access returns the neutral value rather than
  // throwing — callers validate types up front via the predicates.
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept;

  // Array access.
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] const Json& at(std::size_t index) const noexcept {
    return items_[index];
  }
  [[nodiscard]] const std::vector<Json>& items() const noexcept {
    return items_;
  }
  void push_back(Json value);

  // Object access (member order preserved; first match wins on lookup).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return members_;
  }
  Json& set(std::string key, Json value);  ///< returns *this for chaining

  // Convenience typed lookups on objects.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const noexcept;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;

  /// Compact single-line serialization (no insignificant whitespace).
  [[nodiscard]] std::string dump() const;

  /// Strict parse of exactly one document (trailing non-whitespace fails).
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Appends `text` as a quoted JSON string (the escape rule above).
void append_json_escaped(std::string& out, std::string_view text);

/// append_json_escaped into a fresh string, for writers that stream.
[[nodiscard]] std::string json_quoted(std::string_view text);

/// Appends `value` as a JSON number (the number rule above).
void append_json_number(std::string& out, double value);

}  // namespace bvc::obs
