#include "schedule/objective.hpp"

#include <vector>

#include "util/check.hpp"

namespace cohls::schedule {

namespace {

/// The score, with the execution time and path count taken from the caller
/// where given and computed from the result where null.
ObjectiveBreakdown score(const SynthesisResult& result, const model::Assay& assay,
                         const model::CostModel& costs, const SymbolicDuration* total_time,
                         const int* path_count) {
  ObjectiveBreakdown out;
  out.time_minutes = static_cast<double>(
      (total_time != nullptr ? total_time->fixed() : result.total_time(assay).fixed())
          .count());

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
  // Counted only now: the path matrix trusts the device ids checked above.
  out.path_count =
      static_cast<double>(path_count != nullptr ? *path_count : result.path_count(assay));

  out.weighted_total = costs.weight_time() * out.time_minutes +
                       costs.weight_area() * out.area +
                       costs.weight_processing() * out.processing +
                       costs.weight_paths() * out.path_count;
  return out;
}

}  // namespace

ObjectiveBreakdown evaluate_objective(const SynthesisResult& result,
                                      const model::Assay& assay,
                                      const model::CostModel& costs) {
  return score(result, assay, costs, nullptr, nullptr);
}

ObjectiveBreakdown evaluate_objective(const SynthesisResult& result,
                                      const model::Assay& assay,
                                      const model::CostModel& costs,
                                      const SymbolicDuration& total_time, int path_count) {
  return score(result, assay, costs, &total_time, &path_count);
}

}  // namespace cohls::schedule
