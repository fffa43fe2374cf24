// Reproduces Figure 6: the device-inheritance risk that motivates
// progressive re-synthesis. An early layer holds o2 (needs only a sieve
// valve, any container); a later layer holds o1 (needs a ring with sieve
// valve and pump). Without posterior knowledge the first pass builds a
// cheap chamber for o2 *and* a ring for o1 (Fig. 6(b)); the re-synthesis
// iteration lets the early layer bind o2 to the ring the later layer
// integrates anyway (Fig. 6(a)), saving a device.
#include <iostream>

#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Figure 6: unnecessary device integration avoided by"
               " re-synthesis ===\n\n";

  model::Assay assay("figure 6 example");

  // Layer 1: o2 plus an indeterminate op that forces the layer boundary.
  model::OperationSpec o2;
  o2.name = "o2 (sieve valve, any container)";
  o2.accessories = {model::BuiltinAccessory::kSieveValve};
  o2.duration = 10_min;
  const auto o2_id = assay.add_operation(o2);
  (void)o2_id;

  model::OperationSpec gate;
  gate.name = "cell capture (ind)";
  gate.container = model::ContainerKind::Chamber;
  gate.capacity = model::Capacity::Small;
  gate.accessories = {model::BuiltinAccessory::kCellTrap};
  gate.duration = 8_min;
  gate.indeterminate = true;
  const auto gate_id = assay.add_operation(gate);

  // Layer 2: o1 = ring + {sieve valve, pump}, downstream of the capture.
  model::OperationSpec o1;
  o1.name = "o1 (ring, sieve valve + pump)";
  o1.container = model::ContainerKind::Ring;
  o1.capacity = model::Capacity::Small;
  o1.accessories = {model::BuiltinAccessory::kSieveValve,
                    model::BuiltinAccessory::kPump};
  o1.duration = 15_min;
  o1.parents = {gate_id};
  (void)assay.add_operation(o1);

  core::SynthesisOptions options;
  options.max_devices = 6;
  options.layering.indeterminate_threshold = 1;
  options.resynthesis_improvement_threshold = -1.0;  // always run iterations
  options.max_resynthesis_iterations = 2;

  const core::SynthesisReport report = core::synthesize(assay, options);

  std::cout << "iterations:\n";
  for (std::size_t k = 0; k < report.iterations.size(); ++k) {
    const auto& it = report.iterations[k];
    std::cout << "  " << (k == 0 ? "initial (no posterior knowledge)"
                                 : "re-synthesis " + std::to_string(k))
              << ": devices=" << it.device_count
              << ", objective=" << it.objective.weighted_total << '\n';
  }

  std::cout << "\nfinal binding:\n";
  for (const auto& [op, device] : report.result.binding()) {
    const auto& config = report.result.devices.device(device).config;
    std::cout << "  " << assay.operation(op).name() << " -> device#" << device << " ("
              << model::to_string(config.container) << '/'
              << model::to_string(config.capacity) << ' '
              << model::to_string(config.accessories, assay.registry()) << ")\n";
  }

  // The report keeps the best iteration; compare it with the initial pass.
  const bool saved = report.result.used_device_count() <
                     report.iterations.front().device_count;
  std::cout << "\nre-synthesis avoided a device integration: "
            << (saved ? "yes (Fig. 6(a) reached)" : "no") << '\n';
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  std::cout << "schedule valid: " << (violations.empty() ? "yes" : "NO") << '\n';
  return violations.empty() ? 0 : 1;
}
