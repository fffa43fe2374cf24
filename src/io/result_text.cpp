#include "io/result_text.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace cohls::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError("line " + std::to_string(line) + ": " + message);
}

long field_value(const std::string& token, const std::string& key, int line) {
  if (token.rfind(key + "=", 0) != 0) {
    fail(line, "expected " + key + "=<number>, got '" + token + "'");
  }
  const std::string digits = token.substr(key.size() + 1);
  long value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || end != digits.data() + digits.size()) {
    fail(line, "malformed number in '" + token + "'");
  }
  return value;
}

/// field_value for a field stored in 32 bits (ids and the device limit):
/// values outside int32 are rejected, not narrowed.
std::int32_t id_field_value(const std::string& token, const std::string& key, int line) {
  const long value = field_value(token, key, line);
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    fail(line, "value out of range in '" + token + "'");
  }
  return static_cast<std::int32_t>(value);
}

std::vector<std::string> split_words(const std::string& text) {
  // Splits on spaces except inside {...} groups (accessory lists).
  std::vector<std::string> words;
  std::string current;
  int depth = 0;
  for (const char ch : text) {
    if (ch == '{') {
      ++depth;
    } else if (ch == '}') {
      --depth;
    }
    if ((ch == ' ' || ch == '\t') && depth == 0) {
      if (!current.empty()) {
        words.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) {
    words.push_back(std::move(current));
  }
  return words;
}

}  // namespace

std::string to_text(const schedule::SynthesisResult& result, const model::Assay& assay) {
  std::ostringstream out;
  out << "result max_devices=" << result.devices.max_devices() << '\n';
  for (const model::Device& device : result.devices.devices()) {
    out << "device " << device.id.value()
        << " container=" << model::to_string(device.config.container)
        << " capacity=" << model::to_string(device.config.capacity);
    if (!device.config.accessories.empty()) {
      out << " accessories={";
      bool first = true;
      for (const model::AccessoryId acc : device.config.accessories.to_list()) {
        out << (first ? "" : "; ") << assay.registry().name(acc);
        first = false;
      }
      out << '}';
    }
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
  std::istringstream in(text);
  std::string raw;
  int line_number = 0;
  bool saw_header = false;
  schedule::SynthesisResult result;
  int expected_device = 0;

  while (std::getline(in, raw)) {
    ++line_number;
    const auto hash = raw.find('#');
    const std::string stripped = hash == std::string::npos ? raw : raw.substr(0, hash);
    const std::vector<std::string> words = split_words(stripped);
    if (words.empty()) {
      continue;
    }
    const std::string& keyword = words[0];
    if (keyword == "result") {
      if (saw_header) {
        fail(line_number, "duplicate 'result' header");
      }
      if (words.size() != 2) {
        fail(line_number, "expected: result max_devices=<n>");
      }
      const std::int32_t max_devices =
          id_field_value(words[1], "max_devices", line_number);
      if (max_devices < 1) {
        fail(line_number, "max_devices must be positive");
      }
      result.devices = model::DeviceInventory(max_devices);
      saw_header = true;
    } else if (keyword == "device") {
      if (!saw_header) {
        fail(line_number, "'device' before 'result'");
      }
      if (words.size() < 4) {
        fail(line_number, "device line too short");
      }
      long id = 0;
      {
        const auto [end, ec] =
            std::from_chars(words[1].data(), words[1].data() + words[1].size(), id);
        if (ec != std::errc{} || end != words[1].data() + words[1].size()) {
          fail(line_number, "malformed device id");
        }
      }
      if (id != expected_device) {
        fail(line_number, "device ids must be dense and ascending");
      }
      ++expected_device;
      model::DeviceConfig config;
      LayerId created_in;
      for (std::size_t w = 2; w < words.size(); ++w) {
        const std::string& token = words[w];
        if (token.rfind("container=", 0) == 0) {
          const std::string value = token.substr(10);
          if (value == "ring") {
            config.container = model::ContainerKind::Ring;
          } else if (value == "chamber") {
            config.container = model::ContainerKind::Chamber;
          } else {
            fail(line_number, "unknown container '" + value + "'");
          }
        } else if (token.rfind("capacity=", 0) == 0) {
          const std::string value = token.substr(9);
          bool found = false;
          for (const model::Capacity cap : model::kAllCapacities) {
            if (value == model::to_string(cap)) {
              config.capacity = cap;
              found = true;
            }
          }
          if (!found) {
            fail(line_number, "unknown capacity '" + value + "'");
          }
        } else if (token.rfind("accessories={", 0) == 0) {
          if (token.back() != '}') {
            fail(line_number, "unterminated accessory list");
          }
          const std::string body = token.substr(13, token.size() - 14);
          std::size_t start = 0;
          while (start <= body.size() && !body.empty()) {
            const std::size_t sep = body.find(';', start);
            std::string name = body.substr(
                start, sep == std::string::npos ? std::string::npos : sep - start);
            const auto first = name.find_first_not_of(" \t");
            if (first == std::string::npos) {
              fail(line_number, "empty accessory name");
            }
            const auto last = name.find_last_not_of(" \t");
            name = name.substr(first, last - first + 1);
            const model::AccessoryId acc = assay.registry().find(name);
            if (acc < 0) {
              fail(line_number, "unknown accessory '" + name + "'");
            }
            config.accessories.insert(acc);
            if (sep == std::string::npos) {
              break;
            }
            start = sep + 1;
          }
        } else if (token.rfind("created_in=", 0) == 0) {
          created_in = LayerId{id_field_value(token, "created_in", line_number)};
        } else {
          fail(line_number, "unknown device field '" + token + "'");
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
      if (words.size() != 2) {
        fail(line_number, "expected: layer <index>");
      }
      long index = 0;
      const auto [end, ec] =
          std::from_chars(words[1].data(), words[1].data() + words[1].size(), index);
      if (ec != std::errc{} || end != words[1].data() + words[1].size()) {
        fail(line_number, "malformed layer index");
      }
      if (index != static_cast<long>(result.layers.size())) {
        fail(line_number, "layer indices must be dense and ascending");
      }
      schedule::LayerSchedule layer;
      layer.layer = LayerId{static_cast<std::int32_t>(index)};
      result.layers.push_back(std::move(layer));
    } else if (keyword == "schedule") {
      if (result.layers.empty()) {
        fail(line_number, "'schedule' before any 'layer'");
      }
      if (words.size() != 6) {
        fail(line_number, "expected: schedule op= device= start= duration= transport=");
      }
      schedule::ScheduledOperation item;
      item.op = OperationId{id_field_value(words[1], "op", line_number)};
      item.device = DeviceId{id_field_value(words[2], "device", line_number)};
      item.start = Minutes{field_value(words[3], "start", line_number)};
      item.duration = Minutes{field_value(words[4], "duration", line_number)};
      item.transport = Minutes{field_value(words[5], "transport", line_number)};
      if (!item.op.valid() || item.op.value() >= assay.operation_count()) {
        fail(line_number, "operation id outside the assay");
      }
      if (!item.device.valid() || item.device.value() >= result.devices.size()) {
        fail(line_number, "schedule references an undeclared device");
      }
      result.layers.back().items.push_back(item);
    } else {
      fail(line_number, "unknown directive '" + keyword + "'");
    }
  }
  if (!saw_header) {
    throw ParseError("missing 'result' header");
  }
  return result;
}

}  // namespace cohls::io
