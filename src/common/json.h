// Minimal JSON value, parser and writer — just enough for the portable
// FuzzPlan/corpus codec (src/explore/plan_codec.h) and the wfd_explore
// CLI output.
//
// Deliberately tiny rather than general:
//  * numbers are unsigned 64-bit integers only (every quantity in a plan
//    is a count, a time or a seed) — signs, fractions and exponents are
//    parse errors, which doubles as input validation for corpus files;
//  * object keys are kept in a std::map, so dump() emits keys in sorted
//    order — one canonical byte string per value, which is what makes
//    `wfd_explore` output byte-identical across invocations and lets a
//    plan be fingerprinted by hashing its dump;
//  * strings support the escapes the writer can produce (\" \\ \n \t and
//    \u00XX for other control bytes); anything else is a parse error.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace wfd {

class Json {
 public:
  enum class Kind { kNull, kBool, kUInt, kString, kArray, kObject };

  /// Constructs null. Use the named factories for the other kinds.
  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(std::uint64_t u);
  static Json str(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }

  /// Typed accessors; each WFD_ENSUREs the kind matches.
  bool asBool() const;
  std::uint64_t asUInt() const;
  const std::string& asString() const;
  const std::vector<Json>& items() const;             // kArray
  const std::map<std::string, Json>& fields() const;  // kObject

  /// Appends to an array (the value must be kArray).
  void push(Json v);
  /// Sets a key of an object (the value must be kObject).
  void set(const std::string& key, Json v);

  /// Object field lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Canonical serialization: sorted object keys, no whitespace.
  std::string dump() const;

  /// Parses `text` (must contain exactly one value plus whitespace).
  /// Returns nullopt and fills *error (if given) on malformed input.
  static std::optional<Json> parse(const std::string& text,
                                   std::string* error = nullptr);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::map<std::string, Json> fields_;
};

/// Serializes `s` as one quoted JSON string token, using exactly the
/// writer's escaping rules (Json::str(s).dump() without building a
/// value). For emitters that assemble a line with a fixed key ORDER —
/// dump() sorts keys — but must still escape string contents correctly
/// (scenario/scenario.cpp's toJsonLine).
std::string jsonQuoted(const std::string& s);

}  // namespace wfd
