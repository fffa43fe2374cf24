// Whole-token number parsing for the command-line tools. A token with
// trailing characters ("12x"), no digits ("abc") or a value outside the
// target type ("99999999999" for an int) is rejected instead of being read
// as a prefix or wrapped, so the caller can report a usage error.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>

namespace cohls::cli {

[[nodiscard]] inline std::optional<int> parse_int(std::string_view token) {
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// Finite values only: "inf" and "nan" are rejected like any other bad token.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace cohls::cli
