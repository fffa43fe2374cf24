#include "chip/resources.hpp"

#include <cmath>
#include <set>

#include "util/check.hpp"

namespace cohls::chip {

namespace {
int ceil_log2(int n) {
  int bits = 0;
  int value = 1;
  while (value < n) {
    value *= 2;
    ++bits;
  }
  return bits;
}
}  // namespace

ChipResources estimate_resources(const schedule::SynthesisResult& result,
                                 const model::Assay& assay, const ValveModel& valves) {
  ChipResources out;
  std::set<DeviceId> used;
  for (const auto& layer : result.layers) {
    for (const auto& item : layer.items) {
      used.insert(item.device);
    }
  }

  int heater_ports = 0;
  int optical_ports = 0;
  for (const DeviceId id : used) {
    const model::DeviceConfig& config = result.devices.device(id).config;
    out.flow_valves += config.container == model::ContainerKind::Ring
                           ? valves.valves_per_ring
                           : valves.valves_per_chamber;
    for (const model::AccessoryId acc : config.accessories) {
      switch (acc) {
        case model::BuiltinAccessory::kPump:
          out.flow_valves += valves.valves_per_pump;
          break;
        case model::BuiltinAccessory::kSieveValve:
          out.flow_valves += valves.valves_per_sieve;
          break;
        case model::BuiltinAccessory::kCellTrap:
          out.flow_valves += valves.valves_per_cell_trap;
          break;
        case model::BuiltinAccessory::kHeatingPad:
          heater_ports += valves.ports_per_heating_pad;
          break;
        case model::BuiltinAccessory::kOpticalSystem:
          optical_ports += valves.ports_per_optical;
          break;
        default:
          out.flow_valves += valves.valves_per_custom_accessory;
          break;
      }
    }
  }

  out.channels = result.path_count(assay);
  out.flow_valves += out.channels * valves.valves_per_path;

  out.control_ports_direct = out.flow_valves + heater_ports + optical_ports;
  out.control_ports_multiplexed =
      (out.flow_valves > 0 ? 2 * ceil_log2(out.flow_valves) : 0) + heater_ports +
      optical_ports;
  // A multiplexer never needs more lines than direct drive.
  out.control_ports_multiplexed =
      std::min(out.control_ports_multiplexed, out.control_ports_direct);
  return out;
}

}  // namespace cohls::chip
