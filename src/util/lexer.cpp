#include "util/lexer.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <system_error>

namespace cohls::lex {

namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

std::string_view trim(std::string_view text) {
  while (!text.empty() && is_space(text.front())) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(text.back())) {
    text.remove_suffix(1);
  }
  return text;
}

template <class Int>
Int to_int(std::string_view token) {
  Int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw Error("integer out of range: '" + std::string(token) + "'");
  }
  if (token.empty() || ec != std::errc{} || ptr != end) {
    throw Error("expected an integer, got '" + std::string(token) + "'");
  }
  return value;
}

template std::int32_t to_int<std::int32_t>(std::string_view);
template std::int64_t to_int<std::int64_t>(std::string_view);

double to_double(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw Error("number out of range: '" + std::string(token) + "'");
  }
  if (token.empty() || ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    throw Error("expected a finite number, got '" + std::string(token) + "'");
  }
  return value;
}

std::string format_double(double value) {
  std::array<char, 32> buffer{};
  const auto [end, ec] = std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  return std::string(buffer.data(), end);
}

bool Lines::next() {
  while (!rest_.empty()) {
    const std::size_t newline = rest_.find('\n');
    std::string_view line = rest_.substr(0, newline);
    rest_ = newline == std::string_view::npos ? std::string_view{}
                                              : rest_.substr(newline + 1);
    ++number_;
    line = line.substr(0, line.find('#'));
    if (!trim(line).empty()) {
      line_ = line;
      return true;
    }
  }
  return false;
}

void Cursor::skip_spaces() {
  while (pos_ < text_.size() && is_space(text_[pos_])) {
    ++pos_;
  }
}

bool Cursor::at_end() {
  skip_spaces();
  return pos_ >= text_.size();
}

int Cursor::column() {
  skip_spaces();
  return static_cast<int>(pos_) + 1;
}

std::string_view Cursor::word() {
  skip_spaces();
  const std::size_t start = pos_;
  while (pos_ < text_.size() && !is_space(text_[pos_]) && text_[pos_] != '=') {
    ++pos_;
  }
  if (start == pos_) {
    throw Error("expected a word");
  }
  return text_.substr(start, pos_ - start);
}

std::string_view Cursor::quoted() {
  skip_spaces();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    throw Error("expected a quoted string");
  }
  const std::size_t start = pos_ + 1;
  const std::size_t end = text_.find('"', start);
  if (end == std::string_view::npos) {
    throw Error("unterminated quoted string");
  }
  pos_ = end + 1;
  return text_.substr(start, end - start);
}

void Cursor::expect(char c) {
  skip_spaces();
  if (pos_ >= text_.size() || text_[pos_] != c) {
    throw Error(std::string("expected '") + c + "'");
  }
  ++pos_;
}

std::vector<std::string_view> Cursor::list() {
  expect('{');
  const std::size_t close = text_.find('}', pos_);
  if (close == std::string_view::npos) {
    throw Error("expected '}'");
  }
  std::string_view body = text_.substr(pos_, close - pos_);
  pos_ = close + 1;
  std::vector<std::string_view> items;
  while (true) {
    const std::size_t separator = body.find(';');
    const std::string_view item = trim(body.substr(0, separator));
    if (item.empty()) {
      throw Error("empty item in a {...} list");
    }
    items.push_back(item);
    if (separator == std::string_view::npos) {
      return items;
    }
    body.remove_prefix(separator + 1);
  }
}

}  // namespace cohls::lex
