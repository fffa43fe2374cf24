#include "io/result_text.hpp"

#include <cstdint>
#include <sstream>
#include <string_view>
#include <vector>

#include "io/text_fields.hpp"
#include "util/check.hpp"
#include "util/lexer.hpp"

namespace cohls::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message, int column = 0) {
  throw ParseError(line, message, column);
}

/// Reads `key=<integer>`.
template <class Int>
Int read_field(lex::Cursor& cursor, std::string_view key) {
  if (cursor.word() != key) {
    throw lex::Error("expected " + std::string(key) + "=<number>");
  }
  cursor.expect('=');
  return cursor.integer<Int>();
}

}  // namespace

std::string to_text(const schedule::SynthesisResult& result, const model::Assay& assay) {
  std::ostringstream out;
  out << "result max_devices=" << result.devices.max_devices() << '\n';
  for (const model::Device& device : result.devices.devices()) {
    out << "device " << device.id.value()
        << " container=" << model::to_string(device.config.container)
        << " capacity=" << model::to_string(device.config.capacity);
    write_accessories(out, device.config.accessories, assay.registry());
    out << " created_in=" << device.created_in.value() << '\n';
  }
  for (const schedule::LayerSchedule& layer : result.layers) {
    out << "layer " << layer.layer.value() << '\n';
    for (const schedule::ScheduledOperation& item : layer.items) {
      out << "schedule op=" << item.op.value() << " device=" << item.device.value()
          << " start=" << item.start.count() << " duration=" << item.duration.count()
          << " transport=" << item.transport.count() << '\n';
    }
  }
  return out.str();
}

schedule::SynthesisResult result_from_text(const std::string& text,
                                           const model::Assay& assay) {
  // The assay's accessory names by id, copied once for the whole text.
  const std::vector<std::string> accessory_names = assay.registry().names();
  bool saw_header = false;
  schedule::SynthesisResult result;
  int expected_device = 0;
  lex::Lines lines(text);
  try {
    while (lines.next()) {
      const int line_number = lines.number();
      lex::Cursor cursor(lines.text());
      const std::string_view keyword = cursor.word();
      if (keyword == "result") {
        if (saw_header) {
          fail(line_number, "duplicate 'result' header");
        }
        const std::int32_t max_devices = read_field<std::int32_t>(cursor, "max_devices");
        if (max_devices < 1) {
          fail(line_number, "max_devices must be positive");
        }
        result.devices = model::DeviceInventory(max_devices);
        saw_header = true;
      } else if (keyword == "device") {
        if (!saw_header) {
          fail(line_number, "'device' before 'result'");
        }
        if (cursor.integer<std::int32_t>() != expected_device) {
          fail(line_number, "device ids must be dense and ascending");
        }
        ++expected_device;
        model::DeviceConfig config;
        LayerId created_in;
        while (!cursor.at_end()) {
          const std::string_view key = cursor.word();
          cursor.expect('=');
          if (key == "container") {
            config.container = read_container(cursor);
          } else if (key == "capacity") {
            config.capacity = read_capacity(cursor);
          } else if (key == "accessories") {
            config.accessories = read_accessories(cursor, accessory_names);
          } else if (key == "created_in") {
            created_in = LayerId{cursor.integer<std::int32_t>()};
          } else {
            fail(line_number, "unknown device field '" + std::string(key) + "'");
          }
        }
        if (!config.valid()) {
          fail(line_number, "device configuration violates the capacity rules");
        }
        try {
          (void)result.devices.instantiate(config, created_in);
        } catch (const InfeasibleError& e) {
          fail(line_number, e.what());
        }
      } else if (keyword == "layer") {
        if (!saw_header) {
          fail(line_number, "'layer' before 'result'");
        }
        const std::int32_t index = cursor.integer<std::int32_t>();
        if (index != static_cast<std::int64_t>(result.layers.size())) {
          fail(line_number, "layer indices must be dense and ascending");
        }
        schedule::LayerSchedule layer;
        layer.layer = LayerId{index};
        result.layers.push_back(std::move(layer));
      } else if (keyword == "schedule") {
        if (result.layers.empty()) {
          fail(line_number, "'schedule' before any 'layer'");
        }
        schedule::ScheduledOperation item;
        item.op = OperationId{read_field<std::int32_t>(cursor, "op")};
        item.device = DeviceId{read_field<std::int32_t>(cursor, "device")};
        item.start = Minutes{read_field<std::int64_t>(cursor, "start")};
        item.duration = Minutes{read_field<std::int64_t>(cursor, "duration")};
        item.transport = Minutes{read_field<std::int64_t>(cursor, "transport")};
        if (!item.op.valid() || item.op.value() >= assay.operation_count()) {
          fail(line_number, "operation id outside the assay");
        }
        if (!item.device.valid() || item.device.value() >= result.devices.size()) {
          fail(line_number, "schedule references an undeclared device");
        }
        result.layers.back().items.push_back(item);
      } else {
        fail(line_number, "unknown directive '" + std::string(keyword) + "'");
      }
      if (!cursor.at_end()) {
        fail(line_number, "trailing text on a '" + std::string(keyword) + "' line");
      }
    }
  } catch (const lex::Error& e) {
    fail(lines.number(), e.what(), e.column());
  }
  if (!saw_header) {
    throw ParseError("missing 'result' header");
  }
  return result;
}

}  // namespace cohls::io
