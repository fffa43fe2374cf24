#include "io/text_fields.hpp"

#include <string>

namespace cohls::io {

model::ContainerKind read_container(std::string_view word) {
  for (const model::ContainerKind kind :
       {model::ContainerKind::Ring, model::ContainerKind::Chamber}) {
    if (word == model::to_string(kind)) {
      return kind;
    }
  }
  throw lex::Error("unknown container '" + std::string(word) + "'");
}

model::Capacity read_capacity(std::string_view word) {
  for (const model::Capacity capacity : model::kAllCapacities) {
    if (word == model::to_string(capacity)) {
      return capacity;
    }
  }
  throw lex::Error("unknown capacity '" + std::string(word) + "'");
}

model::AccessorySet read_accessories(lex::Cursor& cursor,
                                     const model::AccessoryRegistry& registry) {
  model::AccessorySet set;
  for (const std::string_view name : cursor.list()) {
    const model::AccessoryId id = registry.find(name);
    if (id < 0) {
      throw lex::Error("unknown accessory '" + std::string(name) + "'");
    }
    set.insert(id);
  }
  return set;
}

void write_accessories(std::ostream& out, model::AccessorySet set,
                       const model::AccessoryRegistry& registry) {
  if (set.empty()) {
    return;
  }
  out << " accessories={";
  const char* separator = "";
  for (const model::AccessoryId id : set.to_list()) {
    out << separator << registry.name(id);
    separator = "; ";
  }
  out << '}';
}

}  // namespace cohls::io
