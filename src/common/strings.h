// Small string helpers for diagnostics and bench tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace wfd {

/// 16-char lowercase hex of a u64 — the digest/fingerprint wire format
/// shared by wfd_scenarios and wfd_explore JSON output and the corpus
/// codec (one implementation so the format cannot diverge).
inline std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Parses a decimal u64 made of digits only: no sign, no whitespace, no
/// trailing text, no overflow (strtoull accepts "-1" as 2^64-1 and
/// saturates on overflow). False, with *out untouched, otherwise.
inline bool parseDecimalU64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Joins elements with a separator using operator<<.
template <typename Range>
std::string join(const Range& range, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : range) {
    if (!first) os << sep;
    os << item;
    first = false;
  }
  return os.str();
}

}  // namespace wfd
