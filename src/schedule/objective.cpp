#include "schedule/objective.hpp"

#include <vector>

#include "util/check.hpp"

namespace cohls::schedule {

ObjectiveBreakdown evaluate_objective(const SynthesisResult& result,
                                      const model::Assay& assay,
                                      const model::CostModel& costs) {
  ObjectiveBreakdown out;
  out.time_minutes = static_cast<double>(result.total_time(assay).fixed().count());

  // Mark used devices, then sum in ascending id order so the totals are
  // bit-identical whatever order the layers list their items in.
  std::vector<char> used(static_cast<std::size_t>(result.devices.size()), 0);
  for (const LayerSchedule& layer : result.layers) {
    for (const ScheduledOperation& item : layer.items) {
      COHLS_EXPECT(item.device.valid() && item.device.value() < result.devices.size(),
                   "unknown device id");
      used[item.device.index()] = 1;
    }
  }
  for (std::size_t id = 0; id < used.size(); ++id) {
    if (used[id] == 0) {
      continue;
    }
    const model::Device& device = result.devices.devices()[id];
    out.area += model::device_area(device.config, costs);
    out.processing += model::device_processing(device.config, costs, assay.registry());
  }
  out.path_count = static_cast<double>(result.path_count(assay));

  out.weighted_total = costs.weight_time() * out.time_minutes +
                       costs.weight_area() * out.area +
                       costs.weight_processing() * out.processing +
                       costs.weight_paths() * out.path_count;
  return out;
}

}  // namespace cohls::schedule
