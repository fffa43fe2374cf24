#include "io/assay_text.hpp"

#include <sstream>

#include "io/text_fields.hpp"
#include "util/check.hpp"
#include "util/lexer.hpp"

namespace cohls::io {

namespace {

std::string quoted(const std::string& text) {
  COHLS_EXPECT(text.find('"') == std::string::npos,
               "names must not contain double quotes");
  return '"' + text + '"';
}

}  // namespace

std::string to_text(const model::Assay& assay) {
  std::ostringstream out;
  out << "assay " << quoted(assay.name()) << '\n';
  const model::AccessoryRegistry& registry = assay.registry();
  for (model::AccessoryId id = model::BuiltinAccessory::kCount; id < registry.count();
       ++id) {
    out << "accessory " << quoted(registry.name(id))
        << " cost=" << lex::format_double(registry.processing_cost(id)) << '\n';
  }
  for (const model::Operation& op : assay.operations()) {
    out << "operation " << op.id().value() << ' ' << quoted(op.name())
        << " duration=" << op.duration().count();
    if (op.container().has_value()) {
      out << " container=" << model::to_string(*op.container());
    }
    if (op.capacity().has_value()) {
      out << " capacity=" << model::to_string(*op.capacity());
    }
    write_accessories(out, op.accessories(), registry);
    if (!op.parents().empty()) {
      out << " parents=";
      bool first = true;
      for (const OperationId parent : op.parents()) {
        out << (first ? "" : ",") << parent.value();
        first = false;
      }
    }
    if (op.indeterminate()) {
      out << " indeterminate";
    }
    out << '\n';
  }
  return out.str();
}

model::Assay assay_from_text(const std::string& text) {
  return parse_assay_source(text).build();
}

}  // namespace cohls::io
