// Field readers and writers shared by the assay and result text formats:
// `container=`, `capacity=` and `accessories={a; b}`. The readers throw
// lex::Error carrying the value's column; each format tags it with its line.
#pragma once

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>

#include "model/components.hpp"
#include "util/lexer.hpp"

namespace cohls::io {

[[nodiscard]] model::ContainerKind read_container(lex::Cursor& cursor);
[[nodiscard]] model::Capacity read_capacity(lex::Cursor& cursor);

/// Reads `{a; b}` and resolves each name to its index in `names`, the
/// accessory names by id (strings or string views).
template <class Names>
[[nodiscard]] model::AccessorySet read_accessories(lex::Cursor& cursor, const Names& names) {
  model::AccessorySet set;
  for (const std::string_view name : cursor.list()) {
    const auto found = std::find(std::begin(names), std::end(names), name);
    if (found == std::end(names)) {
      throw lex::Error("unknown accessory '" + std::string(name) + "'", cursor.column_of(name));
    }
    set.insert(static_cast<model::AccessoryId>(found - std::begin(names)));
  }
  return set;
}

/// Writes ` accessories={a; b}`, or nothing for an empty set.
void write_accessories(std::ostream& out, model::AccessorySet set,
                       const model::AccessoryRegistry& registry);

}  // namespace cohls::io
