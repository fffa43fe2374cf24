// Quickstart: describe a small bioassay with component-oriented operation
// definitions, synthesize a schedule + binding, and print the result.
//
//   $ ./quickstart
//
// Walks through the full public API: building an Assay, running
// cohls::core::synthesize, and reading the layered schedule back.
#include <iostream>

#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

using namespace cohls;

int main() {
  // --- 1. Describe the assay ------------------------------------------------
  // A toy protocol: mix two reagents in a rotary mixer, heat the product,
  // then detect it optically. The detection step does not care whether it
  // runs in a ring or a chamber — it only needs an optical system.
  model::Assay assay("quickstart assay");

  model::OperationSpec mix;
  mix.name = "mix reagents";
  mix.container = model::ContainerKind::Ring;  // circulation mixing
  mix.capacity = model::Capacity::Small;
  mix.accessories = {model::BuiltinAccessory::kPump};
  mix.duration = 12_min;
  const auto mixed = assay.add_operation(mix);

  model::OperationSpec heat;
  heat.name = "heat product";
  heat.accessories = {model::BuiltinAccessory::kHeatingPad};
  heat.duration = 20_min;
  heat.parents = {mixed};
  const auto heated = assay.add_operation(heat);

  model::OperationSpec detect;
  detect.name = "detect";
  detect.accessories = {model::BuiltinAccessory::kOpticalSystem};
  detect.duration = 8_min;
  detect.parents = {heated};
  (void)assay.add_operation(detect);

  // --- 2. Synthesize ---------------------------------------------------------
  core::SynthesisOptions options;
  options.max_devices = 5;
  const core::SynthesisReport report = core::synthesize(assay, options);

  // --- 3. Inspect the result ---------------------------------------------------
  std::cout << "assay: " << assay.name() << "\n";
  std::cout << "total execution time: " << report.result.total_time(assay) << "\n";
  std::cout << "devices used: " << report.result.used_device_count() << "\n";
  std::cout << "transport paths: " << report.result.path_count(assay) << "\n\n";

  for (const auto& layer : report.result.layers) {
    std::cout << "layer " << layer.layer.value() + 1 << " (makespan "
              << layer.makespan() << "):\n";
    for (const auto& item : layer.items) {
      const auto& op = assay.operation(item.op);
      const auto& device = report.result.devices.device(item.device);
      std::cout << "  [" << item.start << " .. " << item.end() << "] " << op.name()
                << "  on device#" << item.device << " ("
                << model::to_string(device.config.container) << '/'
                << model::to_string(device.config.capacity) << ' '
                << model::to_string(device.config.accessories, assay.registry())
                << ")\n";
    }
  }

  // --- 4. The result is validated against the paper's constraints -------------
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  std::cout << "\nschedule valid: " << (violations.empty() ? "yes" : "NO") << "\n";
  for (const auto& v : violations) {
    std::cout << "  violation: " << diag::summary_line(v) << "\n";
  }
  return violations.empty() ? 0 : 1;
}
