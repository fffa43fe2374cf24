#include "io/assay_source.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "io/text_fields.hpp"
#include "util/check.hpp"
#include "util/lexer.hpp"

namespace cohls::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message, int column = 0) {
  throw ParseError(line, message, column);
}

/// A quoted name. An empty one is a lexical error, so the linter reports
/// what the builder would otherwise reject.
std::string_view read_name(lex::Cursor& cursor) {
  const int column = cursor.column();
  const std::string_view name = cursor.quoted();
  if (name.empty()) {
    throw lex::Error("names must be non-empty", column);
  }
  return name;
}

/// One parse: the source it fills and the accessory names it can resolve.
class SourceReader {
 public:
  explicit SourceReader(AssaySource& source) : source_(source) {
    std::copy(model::kBuiltinAccessoryNames.begin(), model::kBuiltinAccessoryNames.end(),
              accessory_names_.begin());
  }

  /// Reads one directive line.
  void read(int line, lex::Cursor& cursor) {
    const int keyword_column = cursor.column();
    const std::string_view keyword = cursor.word();
    if (keyword == "operation") {
      if (!saw_assay_) {
        fail(line, "'operation' before 'assay'", keyword_column);
      }
      read_operation(line, keyword_column, cursor);
    } else if (keyword == "accessory") {
      if (!saw_assay_) {
        fail(line, "'accessory' before 'assay'", keyword_column);
      }
      read_accessory(line, cursor);
    } else if (keyword == "assay") {
      if (saw_assay_) {
        fail(line, "duplicate 'assay' header", keyword_column);
      }
      source_.name = read_name(cursor);
      source_.name_line = line;
      saw_assay_ = true;
    } else {
      fail(line, "unknown directive '" + std::string(keyword) + "'", keyword_column);
    }
  }

  [[nodiscard]] bool saw_assay() const { return saw_assay_; }

 private:
  void read_accessory(int line, lex::Cursor& cursor) {
    const int name_column = cursor.column();
    const std::string_view name = read_name(cursor);
    // The name must read back from an accessories={...} list.
    if (lex::trim(name) != name || name.find_first_of(";}") != std::string_view::npos) {
      fail(line, "accessory name '" + std::string(name) + "' has edge whitespace, ';' or '}'",
           name_column);
    }
    const int key_column = cursor.column();
    if (cursor.word() != "cost") {
      fail(line, "expected cost=<number>", key_column);
    }
    cursor.expect('=');
    SourceAccessory accessory{std::string(name), cursor.real(), line};
    try {
      const model::AccessoryId id =
          source_.registry.register_accessory(accessory.name, accessory.cost);
      COHLS_ASSERT(static_cast<std::size_t>(id) == accessory_count_,
                   "a parse's registry numbers its kinds in file order");
    } catch (const PreconditionError& e) {
      fail(line, e.what(), name_column);
    }
    // A view into the text, which outlives the parse.
    accessory_names_[accessory_count_++] = name;
    source_.accessories.push_back(std::move(accessory));
  }

  void read_operation(int line, int keyword_column, lex::Cursor& cursor) {
    SourceOperation& op = source_.operations.emplace_back();
    op.line = line;
    op.column = keyword_column;
    op.first_parent = static_cast<std::uint32_t>(source_.parent_ids.size());
    op.id = cursor.integer<std::int64_t>();
    op.spec.name = read_name(cursor);
    while (!cursor.at_end()) {
      const int key_column = cursor.column();
      const std::string_view key = cursor.word();
      if (key == "indeterminate") {
        op.spec.indeterminate = true;
        continue;
      }
      cursor.expect('=');
      if (key == "duration") {
        op.spec.duration = Minutes{cursor.integer<std::int32_t>()};
      } else if (key == "accessories") {
        op.spec.accessories = read_accessories(
            cursor,
            std::span<const std::string_view>(accessory_names_.data(), accessory_count_));
      } else if (key == "parents") {
        read_parents(cursor);
      } else if (key == "container") {
        op.spec.container = read_container(cursor);
      } else if (key == "capacity") {
        op.spec.capacity = read_capacity(cursor);
      } else {
        fail(line, "unknown field '" + std::string(key) + "'", key_column);
      }
    }
    op.parent_count = static_cast<std::uint32_t>(source_.parent_ids.size()) - op.first_parent;
  }

  /// `parents=` takes a comma-separated run of ids, read as one word.
  void read_parents(lex::Cursor& cursor) {
    std::string_view list = cursor.word();
    while (true) {
      const std::string_view id = list.substr(0, list.find(','));
      source_.parent_ids.push_back(lex::to_int<std::int64_t>(id, cursor.column_of(id)));
      if (id.size() == list.size()) {
        return;
      }
      list.remove_prefix(id.size() + 1);
    }
  }

  AssaySource& source_;
  bool saw_assay_ = false;
  // The built-ins, then each custom kind in file order. Looking names up
  // here instead of in the registry takes no lock per name.
  std::array<std::string_view, model::AccessoryRegistry::kMaxAccessories> accessory_names_{};
  std::size_t accessory_count_ = model::kBuiltinAccessoryNames.size();
};

}  // namespace

int AssaySource::line_of(long id) const {
  for (const SourceOperation& op : operations) {
    if (op.id == id) {
      return op.line;
    }
  }
  return 0;
}

model::Assay AssaySource::build() && {
  model::Assay assay(std::move(name), std::move(registry));
  assay.reserve(operations.size(), parent_ids.size());
  std::vector<OperationId> resolved;  // one operation's parents, reused
  for (SourceOperation& op : operations) {
    if (op.id != assay.operation_count()) {
      fail(op.line, "operation ids must be dense and ascending (expected " +
                        std::to_string(assay.operation_count()) + ")");
    }
    resolved.clear();
    for (const long parent : parents(op)) {
      // Ids are stored in 32 bits: a parent outside that range is rejected,
      // not narrowed (4294967296 would wrap to operation 0).
      if (parent < std::numeric_limits<std::int32_t>::min() ||
          parent > std::numeric_limits<std::int32_t>::max()) {
        fail(op.line, "parent id out of range: " + std::to_string(parent));
      }
      resolved.push_back(OperationId{static_cast<std::int32_t>(parent)});
    }
    try {
      (void)assay.add_operation(std::move(op.spec), resolved);
    } catch (const PreconditionError& e) {
      fail(op.line, e.what());
    }
  }
  return assay;
}

AssaySource parse_assay_source(const std::string& text) {
  AssaySource source;
  SourceReader reader(source);
  lex::Lines lines(text);
  try {
    while (lines.next()) {
      lex::Cursor cursor(lines.text());
      reader.read(lines.number(), cursor);
    }
  } catch (const lex::Error& e) {
    fail(lines.number(), e.what(), e.column());
  }

  if (!reader.saw_assay()) {
    throw ParseError("missing 'assay' header");
  }
  return source;
}

}  // namespace cohls::io
