#include "util/lexer.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <system_error>

namespace cohls::lex {

template <class Int>
Int to_int(std::string_view token, int column) {
  Int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw Error("integer out of range: '" + std::string(token) + "'", column);
  }
  if (token.empty() || ec != std::errc{} || ptr != end) {
    throw Error("expected an integer, got '" + std::string(token) + "'", column);
  }
  return value;
}

template std::int32_t to_int<std::int32_t>(std::string_view, int);
template std::int64_t to_int<std::int64_t>(std::string_view, int);

double to_double(std::string_view token, int column) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw Error("number out of range: '" + std::string(token) + "'", column);
  }
  if (token.empty() || ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    throw Error("expected a finite number, got '" + std::string(token) + "'", column);
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

void Cursor::fail(const std::string& message, std::size_t pos) const {
  throw Error(message, column_at(pos));
}

double Cursor::real() {
  const int at = column();
  return to_double(word(), at);
}

std::string_view Cursor::quoted() {
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    fail("expected a quoted string", pos_);
  }
  const std::size_t start = pos_ + 1;
  const std::size_t end = text_.find('"', start);
  if (end == std::string_view::npos) {
    fail("unterminated quoted string", pos_);
  }
  pos_ = end + 1;
  skip_spaces();
  return text_.substr(start, end - start);
}

List Cursor::list() {
  if (pos_ >= text_.size() || text_[pos_] != '{') {
    fail("expected '{'", pos_);
  }
  const std::size_t open = pos_ + 1;
  const std::size_t close = text_.find('}', open);
  if (close == std::string_view::npos) {
    fail("expected '}'", text_.size());
  }
  pos_ = close + 1;
  skip_spaces();
  const std::string_view body = text_.substr(open, close - open);
  for (std::size_t item = 0;;) {
    const std::size_t separator = body.find(';', item);
    if (trim(body.substr(item, separator - item)).empty()) {
      fail("empty item in a {...} list", open + item);
    }
    if (separator == std::string_view::npos) {
      return List(body);
    }
    item = separator + 1;
  }
}

List::iterator::iterator(std::string_view body) : rest_(body) { ++*this; }

List::iterator& List::iterator::operator++() {
  if (rest_.data() == nullptr) {
    *this = iterator();
    return *this;
  }
  const std::size_t separator = rest_.find(';');
  item_ = trim(rest_.substr(0, separator));
  rest_ = separator == std::string_view::npos ? std::string_view{}
                                              : rest_.substr(separator + 1);
  return *this;
}

}  // namespace cohls::lex
