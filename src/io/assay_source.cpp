#include "io/assay_source.hpp"

#include <cstdint>
#include <limits>

#include "io/text_fields.hpp"
#include "util/check.hpp"
#include "util/lexer.hpp"

namespace cohls::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError(line, message);
}

/// A quoted name. An empty one is a lexical error, so the linter reports
/// what the builder would otherwise reject.
std::string read_name(lex::Cursor& cursor) {
  const std::string_view name = cursor.quoted();
  if (name.empty()) {
    throw lex::Error("names must be non-empty");
  }
  return std::string(name);
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
  AssaySource source;
  bool saw_assay = false;
  lex::Lines lines(text);
  try {
    while (lines.next()) {
      const int line_number = lines.number();
      lex::Cursor cursor(lines.text());
      const int keyword_column = cursor.column();
      const std::string_view keyword = cursor.word();
      if (keyword == "assay") {
        if (saw_assay) {
          fail(line_number, "duplicate 'assay' header");
        }
        source.name = read_name(cursor);
        source.name_line = line_number;
        saw_assay = true;
      } else if (keyword == "accessory") {
        if (!saw_assay) {
          fail(line_number, "'accessory' before 'assay'");
        }
        SourceAccessory accessory;
        accessory.line = line_number;
        accessory.name = read_name(cursor);
        // The name must read back from an accessories={...} list.
        if (lex::trim(accessory.name) != accessory.name ||
            accessory.name.find_first_of(";}") != std::string::npos) {
          fail(line_number, "accessory name '" + accessory.name +
                                "' has edge whitespace, ';' or '}'");
        }
        if (cursor.word() != "cost") {
          fail(line_number, "expected cost=<number>");
        }
        cursor.expect('=');
        accessory.cost = lex::to_double(cursor.word());
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
        op.id = lex::to_int<std::int64_t>(cursor.word());
        op.spec.name = read_name(cursor);
        while (!cursor.at_end()) {
          const std::string_view key = cursor.word();
          if (key == "indeterminate") {
            op.spec.indeterminate = true;
            continue;
          }
          cursor.expect('=');
          if (key == "duration") {
            op.spec.duration = Minutes{lex::to_int<std::int32_t>(cursor.word())};
          } else if (key == "container") {
            op.spec.container = read_container(cursor.word());
          } else if (key == "capacity") {
            op.spec.capacity = read_capacity(cursor.word());
          } else if (key == "accessories") {
            op.spec.accessories = read_accessories(cursor, source.registry);
          } else if (key == "parents") {
            std::string_view list = cursor.word();
            while (true) {
              const std::size_t comma = list.find(',');
              op.parents.push_back(lex::to_int<std::int64_t>(list.substr(0, comma)));
              if (comma == std::string_view::npos) {
                break;
              }
              list.remove_prefix(comma + 1);
            }
          } else {
            fail(line_number, "unknown field '" + std::string(key) + "'");
          }
        }
        source.operations.push_back(std::move(op));
      } else {
        fail(line_number, "unknown directive '" + std::string(keyword) + "'");
      }
    }
  } catch (const lex::Error& e) {
    fail(lines.number(), e.what());
  }

  if (!saw_assay) {
    throw ParseError("missing 'assay' header");
  }
  return source;
}

}  // namespace cohls::io
