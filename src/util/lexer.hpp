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
// Readers throw lex::Error with a bare message and, when a Cursor read the
// token, its column; a format catches it and rethrows its own error type
// tagged with the line it was reading.
//
// Cost: every reader is linear in its bytes and allocates nothing on
// success; a {a; b} list is a view over the line, not a container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cohls::lex {

/// A malformed token. The message names the token but not the line.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message, int column = 0)
      : std::runtime_error(message), column_(column) {}

  /// 1-based column of the offending token within its line; 0 when the
  /// token was read without a Cursor.
  [[nodiscard]] int column() const { return column_; }

 private:
  int column_ = 0;
};

/// Space, tab and CR.
[[nodiscard]] inline bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// `text` without leading and trailing whitespace.
[[nodiscard]] inline std::string_view trim(std::string_view text) {
  while (!text.empty() && is_space(text.front())) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(text.back())) {
    text.remove_suffix(1);
  }
  return text;
}

/// The whole token as a decimal integer of type Int (std::int32_t or
/// std::int64_t). Throws Error, carrying `column`, when it is malformed or
/// does not fit.
template <class Int>
[[nodiscard]] Int to_int(std::string_view token, int column = 0);

extern template std::int32_t to_int<std::int32_t>(std::string_view, int);
extern template std::int64_t to_int<std::int64_t>(std::string_view, int);

/// The whole token as a finite double. Throws Error, carrying `column`,
/// otherwise.
[[nodiscard]] double to_double(std::string_view token, int column = 0);

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

/// The items of a `{a; b}` list, trimmed and non-empty, in order: a view
/// over the list's text that Cursor::list has already checked.
class List {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string_view*;
    using reference = std::string_view;

    iterator() = default;
    [[nodiscard]] std::string_view operator*() const { return item_; }
    iterator& operator++();
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.item_.data() == b.item_.data() && a.rest_.data() == b.rest_.data();
    }

   private:
    friend class List;
    explicit iterator(std::string_view body);

    std::string_view item_;
    std::string_view rest_;  ///< text after item_'s ';'; null once at the end
  };

  [[nodiscard]] iterator begin() const { return iterator(body_); }
  [[nodiscard]] iterator end() const { return iterator(); }

 private:
  friend class Cursor;
  explicit List(std::string_view body) : body_(body) {}

  std::string_view body_;
};

/// Reads the tokens of one line, each after optional whitespace. Every
/// Error it throws carries the column where the bad token starts. The
/// per-token reads are inline and each skips the whitespace after its
/// token, so a line costs one pass over its characters.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) { skip_spaces(); }

  /// True when only whitespace is left.
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  /// 1-based column of the next token.
  [[nodiscard]] int column() const { return column_at(pos_); }
  /// 1-based column of `token`, a view into this cursor's text.
  [[nodiscard]] int column_of(std::string_view token) const {
    return column_at(static_cast<std::size_t>(token.data() - text_.data()));
  }
  /// A run of characters up to whitespace or '='.
  std::string_view word() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !ends_word(text_[pos_])) {
      ++pos_;
    }
    if (start == pos_) {
      fail("expected a word", start);
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    skip_spaces();
    return token;
  }
  /// word() as a whole integer of type Int (see to_int).
  template <class Int>
  Int integer() {
    const int at = column();
    return to_int<Int>(word(), at);
  }
  /// word() as a finite double (see to_double).
  double real();
  /// A "quoted" string, returned without its quotes.
  std::string_view quoted();
  /// Consumes the character `c`.
  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
    skip_spaces();
  }
  /// A `{a; b}` list. Every item is checked before the list is returned, so
  /// a malformed list throws here, never while its items are walked.
  List list();

 private:
  /// Whitespace or '=', as one bit test: this is the per-character loop of
  /// every parse.
  [[nodiscard]] static bool ends_word(char c) {
    constexpr std::uint64_t kEnds = 1ULL << ' ' | 1ULL << '\t' | 1ULL << '\r' | 1ULL << '=';
    const auto byte = static_cast<unsigned char>(c);
    return byte < 64 && (kEnds >> byte & 1) != 0;
  }
  void skip_spaces() {
    while (pos_ < text_.size() && is_space(text_[pos_])) {
      ++pos_;
    }
  }
  [[nodiscard]] int column_at(std::size_t pos) const { return static_cast<int>(pos) + 1; }
  /// Throws Error(message) at the column of text position `pos`.
  [[noreturn]] void fail(const std::string& message, std::size_t pos) const;

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace cohls::lex
