// Domain example 3: extending the component vocabulary. The paper's
// central claim for the general-device concept is that it "can easily be
// extended and thus adapted to continuous biological innovations". This
// example registers a new accessory kind — a droplet sorter — and shows
// that synthesis, binding and cost accounting pick it up without any
// changes to the library.
#include <iostream>

#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

using namespace cohls;

int main() {
  // Register the new accessory before describing operations that use it.
  model::AccessoryRegistry registry;
  const model::AccessoryId droplet_sorter =
      registry.register_accessory("droplet sorter", /*processing_cost=*/3.5);

  model::Assay assay("droplet sorting assay", registry);

  model::OperationSpec emulsify;
  emulsify.name = "emulsify sample";
  emulsify.container = model::ContainerKind::Ring;
  emulsify.capacity = model::Capacity::Medium;
  emulsify.accessories = {model::BuiltinAccessory::kPump};
  emulsify.duration = 10_min;
  const auto emulsion = assay.add_operation(emulsify);

  model::OperationSpec sort;
  sort.name = "sort droplets";
  sort.accessories = {droplet_sorter, model::BuiltinAccessory::kOpticalSystem};
  sort.duration = 25_min;
  sort.indeterminate = true;  // sorting ends when enough droplets are kept
  sort.parents = {emulsion};
  const auto sorted = assay.add_operation(sort);

  model::OperationSpec incubate;
  incubate.name = "incubate sorted droplets";
  incubate.accessories = {model::BuiltinAccessory::kHeatingPad};
  incubate.duration = 30_min;
  incubate.parents = {sorted};
  const auto grown = assay.add_operation(incubate);

  // Analysis only needs optics — the binding rule lets it re-use the
  // sorter's device, whose accessory set is a superset.
  model::OperationSpec analyze;
  analyze.name = "analyze droplets";
  analyze.accessories = {model::BuiltinAccessory::kOpticalSystem};
  analyze.duration = 12_min;
  analyze.parents = {grown};
  (void)assay.add_operation(analyze);

  core::SynthesisOptions options;
  options.max_devices = 6;
  const auto report = core::synthesize(assay, options);

  std::cout << "assay: " << assay.name() << "\n";
  std::cout << "registered accessory kinds: " << assay.registry().count() << " (built-in 5 + "
            << assay.registry().name(droplet_sorter) << ")\n\n";

  for (const auto& layer : report.result.layers) {
    for (const auto& item : layer.items) {
      const auto& config = report.result.devices.device(item.device).config;
      std::cout << "layer " << layer.layer.value() + 1 << "  [" << item.start << " .. "
                << item.end() << "]  " << assay.operation(item.op).name()
                << "  on device#" << item.device << ' '
                << model::to_string(config.accessories, assay.registry()) << "\n";
    }
  }
  std::cout << "\ntotal time: " << report.result.total_time(assay) << "\n";

  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  std::cout << "schedule valid: " << (violations.empty() ? "yes" : "NO") << "\n";
  return violations.empty() ? 0 : 1;
}
