// Field readers and writers shared by the assay and result text formats:
// `container=`, `capacity=` and `accessories={a; b}`. The readers throw
// lex::Error; each format tags it with its line.
#pragma once

#include <ostream>
#include <string_view>

#include "model/components.hpp"
#include "util/lexer.hpp"

namespace cohls::io {

[[nodiscard]] model::ContainerKind read_container(std::string_view word);
[[nodiscard]] model::Capacity read_capacity(std::string_view word);

/// Reads `{a; b}` and resolves each name against `registry`.
[[nodiscard]] model::AccessorySet read_accessories(lex::Cursor& cursor,
                                                   const model::AccessoryRegistry& registry);

/// Writes ` accessories={a; b}`, or nothing for an empty set.
void write_accessories(std::ostream& out, model::AccessorySet set,
                       const model::AccessoryRegistry& registry);

}  // namespace cohls::io
