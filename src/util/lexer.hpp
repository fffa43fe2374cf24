// The one text reader behind every input format: assay and result files,
// fault plans, hazard specs, batch manifests and the command-line tools'
// numeric flags. Each format keeps its own grammar of directives and its own
// error type; what a line, a word and a number are is decided here, once:
//
//   - a line ends at '\n'; '#' starts a comment that runs to the end of the
//     line; a line left with only whitespace is skipped;
//   - whitespace is space, tab and CR, so CRLF text reads like LF text;
//   - an integer is decimal digits with an optional leading '-' (no '+', no
//     hex, nothing before or after), and must fit the caller's type:
//     durations and ids are int32, times on the assay clock int64;
//   - a real number is an integer or a decimal fraction with an optional
//     exponent and leading '-', and must be finite: "inf", "nan" and values
//     that overflow a double (1e309) are rejected;
//   - reals are written in the shortest form that reads back to the same
//     bits, so every text format round-trips its values exactly.
//
// Readers throw lex::Error with a bare message; a format catches it and
// rethrows its own error type tagged with the line it was reading.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cohls::lex {

/// A malformed token. The message names the token but not the line.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `text` without leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// The whole token as a decimal integer of type Int (std::int32_t or
/// std::int64_t). Throws Error when it is malformed or does not fit.
template <class Int>
[[nodiscard]] Int to_int(std::string_view token);

extern template std::int32_t to_int<std::int32_t>(std::string_view);
extern template std::int64_t to_int<std::int64_t>(std::string_view);

/// The whole token as a finite double. Throws Error otherwise.
[[nodiscard]] double to_double(std::string_view token);

/// The shortest text to_double reads back to exactly `value`.
[[nodiscard]] std::string format_double(double value);

/// Walks the lines of a text that hold more than whitespace and comments.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// Moves to the next such line; false once the text is exhausted.
  bool next();
  /// 1-based number of the current line.
  [[nodiscard]] int number() const { return number_; }
  /// The current line with its comment cut off.
  [[nodiscard]] std::string_view text() const { return line_; }

 private:
  std::string_view rest_;
  std::string_view line_;
  int number_ = 0;
};

/// Reads the tokens of one line, each after optional whitespace.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// True when only whitespace is left.
  [[nodiscard]] bool at_end();
  /// 1-based column of the next token.
  [[nodiscard]] int column();
  /// A run of characters up to whitespace or '='.
  std::string_view word();
  /// A "quoted" string, returned without its quotes.
  std::string_view quoted();
  /// Consumes the character `c`.
  void expect(char c);
  /// A `{a; b}` list: its items, trimmed and non-empty, in order.
  std::vector<std::string_view> list();

 private:
  void skip_spaces();

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace cohls::lex
