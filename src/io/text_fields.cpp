#include "io/text_fields.hpp"

#include <string>

namespace cohls::io {

model::ContainerKind read_container(lex::Cursor& cursor) {
  const int column = cursor.column();
  const std::string_view word = cursor.word();
  for (const model::ContainerKind kind :
       {model::ContainerKind::Ring, model::ContainerKind::Chamber}) {
    if (word == model::to_string(kind)) {
      return kind;
    }
  }
  throw lex::Error("unknown container '" + std::string(word) + "'", column);
}

model::Capacity read_capacity(lex::Cursor& cursor) {
  const int column = cursor.column();
  const std::string_view word = cursor.word();
  for (const model::Capacity capacity : model::kAllCapacities) {
    if (word == model::to_string(capacity)) {
      return capacity;
    }
  }
  throw lex::Error("unknown capacity '" + std::string(word) + "'", column);
}

void write_accessories(std::ostream& out, model::AccessorySet set,
                       const model::AccessoryRegistry& registry) {
  if (set.empty()) {
    return;
  }
  out << " accessories={";
  const char* separator = "";
  for (const model::AccessoryId id : set) {
    out << separator << registry.name(id);
    separator = "; ";
  }
  out << '}';
}

}  // namespace cohls::io
