#include "io/assay_source.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace cohls::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError(line, message);
}

/// A cursor over one line.
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;
  int line;

  void skip_spaces() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
  }
  bool at_end() {
    skip_spaces();
    return pos >= text.size();
  }
  /// Next bare word (up to space or '=').
  std::string word() {
    skip_spaces();
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != ' ' && text[pos] != '\t' &&
           text[pos] != '=') {
      ++pos;
    }
    if (start == pos) {
      fail(line, "expected a word");
    }
    return text.substr(start, pos - start);
  }
  std::string quoted_string() {
    skip_spaces();
    if (pos >= text.size() || text[pos] != '"') {
      fail(line, "expected a quoted string");
    }
    const std::size_t start = ++pos;
    while (pos < text.size() && text[pos] != '"') {
      ++pos;
    }
    if (pos >= text.size()) {
      fail(line, "unterminated quoted string");
    }
    return text.substr(start, pos++ - start);
  }
  void expect_char(char c) {
    skip_spaces();
    if (pos >= text.size() || text[pos] != c) {
      fail(line, std::string("expected '") + c + "'");
    }
    ++pos;
  }
  /// Text up to (not including) `stop`, trimmed.
  std::string until(char stop) {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != stop) {
      ++pos;
    }
    if (pos >= text.size()) {
      fail(line, std::string("expected '") + stop + "'");
    }
    std::string out = text.substr(start, pos - start);
    const auto first = out.find_first_not_of(" \t");
    const auto last = out.find_last_not_of(" \t");
    return first == std::string::npos ? std::string{}
                                      : out.substr(first, last - first + 1);
  }
};

long parse_long(const std::string& token, int line) {
  long value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    fail(line, "expected an integer, got '" + token + "'");
  }
  return value;
}

double parse_double(const std::string& token, int line) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(token, &consumed);
    if (consumed != token.size()) {
      fail(line, "trailing characters after number '" + token + "'");
    }
    return value;
  } catch (const std::invalid_argument&) {
    fail(line, "expected a number, got '" + token + "'");
  } catch (const std::out_of_range&) {
    fail(line, "number out of range: '" + token + "'");
  }
}

}  // namespace

int AssaySource::line_of(long id) const {
  for (const SourceOperation& op : operations) {
    if (op.id == id) {
      return op.line;
    }
  }
  return 0;
}

model::Assay AssaySource::build() const {
  model::Assay assay(name, registry);
  for (const SourceOperation& op : operations) {
    if (op.id != assay.operation_count()) {
      fail(op.line, "operation ids must be dense and ascending (expected " +
                        std::to_string(assay.operation_count()) + ")");
    }
    model::OperationSpec spec = op.spec;
    spec.parents.reserve(op.parents.size());
    for (const long parent : op.parents) {
      // Ids are stored in 32 bits: a parent outside that range is rejected,
      // not narrowed (4294967296 would wrap to operation 0).
      if (parent < std::numeric_limits<std::int32_t>::min() ||
          parent > std::numeric_limits<std::int32_t>::max()) {
        fail(op.line, "parent id out of range: " + std::to_string(parent));
      }
      spec.parents.push_back(OperationId{static_cast<std::int32_t>(parent)});
    }
    try {
      (void)assay.add_operation(std::move(spec));
    } catch (const PreconditionError& e) {
      fail(op.line, e.what());
    }
  }
  return assay;
}

AssaySource parse_assay_source(const std::string& text) {
  std::istringstream in(text);
  std::string raw_line;
  int line_number = 0;

  AssaySource source;
  bool saw_assay = false;

  while (std::getline(in, raw_line)) {
    ++line_number;
    // Strip comments.
    const auto hash = raw_line.find('#');
    const std::string stripped =
        hash == std::string::npos ? raw_line : raw_line.substr(0, hash);
    Cursor cursor{stripped, 0, line_number};
    if (cursor.at_end()) {
      continue;
    }
    const int keyword_column = static_cast<int>(cursor.pos) + 1;
    const std::string keyword = cursor.word();
    if (keyword == "assay") {
      if (saw_assay) {
        fail(line_number, "duplicate 'assay' header");
      }
      source.name = cursor.quoted_string();
      source.name_line = line_number;
      saw_assay = true;
    } else if (keyword == "accessory") {
      if (!saw_assay) {
        fail(line_number, "'accessory' before 'assay'");
      }
      SourceAccessory accessory;
      accessory.line = line_number;
      accessory.name = cursor.quoted_string();
      const std::string key = cursor.word();
      if (key != "cost") {
        fail(line_number, "expected cost=<number>");
      }
      cursor.expect_char('=');
      accessory.cost = parse_double(cursor.word(), line_number);
      try {
        source.registry.register_accessory(accessory.name, accessory.cost);
      } catch (const PreconditionError& e) {
        fail(line_number, e.what());
      }
      source.accessories.push_back(std::move(accessory));
    } else if (keyword == "operation") {
      if (!saw_assay) {
        fail(line_number, "'operation' before 'assay'");
      }
      SourceOperation op;
      op.line = line_number;
      op.column = keyword_column;
      op.id = parse_long(cursor.word(), line_number);
      op.spec.name = cursor.quoted_string();
      while (!cursor.at_end()) {
        const std::string key = cursor.word();
        if (key == "indeterminate") {
          op.spec.indeterminate = true;
          continue;
        }
        cursor.expect_char('=');
        if (key == "duration") {
          op.spec.duration = Minutes{parse_long(cursor.word(), line_number)};
        } else if (key == "container") {
          const std::string value = cursor.word();
          if (value == "ring") {
            op.spec.container = model::ContainerKind::Ring;
          } else if (value == "chamber") {
            op.spec.container = model::ContainerKind::Chamber;
          } else {
            fail(line_number, "unknown container '" + value + "'");
          }
        } else if (key == "capacity") {
          const std::string value = cursor.word();
          bool found = false;
          for (const model::Capacity cap : model::kAllCapacities) {
            if (value == model::to_string(cap)) {
              op.spec.capacity = cap;
              found = true;
            }
          }
          if (!found) {
            fail(line_number, "unknown capacity '" + value + "'");
          }
        } else if (key == "accessories") {
          cursor.expect_char('{');
          const std::string body = cursor.until('}');
          cursor.expect_char('}');
          std::size_t start = 0;
          while (start <= body.size()) {
            const std::size_t sep = body.find(';', start);
            std::string name = body.substr(
                start, sep == std::string::npos ? std::string::npos : sep - start);
            const auto first = name.find_first_not_of(" \t");
            if (first == std::string::npos) {
              fail(line_number, "empty accessory name");
            }
            const auto last = name.find_last_not_of(" \t");
            name = name.substr(first, last - first + 1);
            const model::AccessoryId id = source.registry.find(name);
            if (id < 0) {
              fail(line_number, "unknown accessory '" + name + "'");
            }
            op.spec.accessories.insert(id);
            if (sep == std::string::npos) {
              break;
            }
            start = sep + 1;
          }
        } else if (key == "parents") {
          const std::string list = cursor.word();
          std::size_t start = 0;
          while (start <= list.size()) {
            const std::size_t sep = list.find(',', start);
            const std::string token = list.substr(
                start, sep == std::string::npos ? std::string::npos : sep - start);
            op.parents.push_back(parse_long(token, line_number));
            if (sep == std::string::npos) {
              break;
            }
            start = sep + 1;
          }
        } else {
          fail(line_number, "unknown field '" + key + "'");
        }
      }
      source.operations.push_back(std::move(op));
    } else {
      fail(line_number, "unknown directive '" + keyword + "'");
    }
  }

  if (!saw_assay) {
    throw ParseError("missing 'assay' header");
  }
  return source;
}

}  // namespace cohls::io
