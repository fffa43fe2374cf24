#include "core/transport_estimator.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace cohls::core {

namespace {

/// One inter-device path with the number of transfers using it and, once
/// ranked, the progression term its edges get.
struct PathUsage {
  schedule::DevicePath path;
  int transfers = 0;
  Minutes time{0};
};

bool path_before(const PathUsage& usage, const schedule::DevicePath& path) {
  return usage.path < path;
}

}  // namespace

schedule::TransportPlan refine_transport(const schedule::SynthesisResult& result,
                                         const model::Assay& assay,
                                         const schedule::TransportProgression& progression,
                                         Minutes fallback) {
  schedule::TransportPlan plan(fallback);
  const std::vector<std::optional<DeviceId>> device_of = result.dense_binding(assay);

  // Count how many transfers use each inter-device path: collect one entry
  // per transfer, sort by path and merge runs.
  std::vector<schedule::DevicePath> transfers;
  for (const model::Operation& op : assay.operations()) {
    const std::optional<DeviceId> parent_device = device_of[op.id().index()];
    if (!parent_device) {
      continue;
    }
    for (const OperationId child : assay.children(op.id())) {
      const std::optional<DeviceId> child_device = device_of[child.index()];
      if (child_device && *parent_device != *child_device) {
        transfers.push_back(schedule::make_path(*parent_device, *child_device));
      }
    }
  }
  std::sort(transfers.begin(), transfers.end());
  std::vector<PathUsage> usage;  // sorted by path
  for (const schedule::DevicePath& path : transfers) {
    if (usage.empty() || usage.back().path != path) {
      usage.push_back(PathUsage{path, 0, Minutes{0}});
    }
    ++usage.back().transfers;
  }

  // Rank paths by usage (descending, ties by path); the busiest paths get
  // the shortest terms. Rank r of P paths maps to term floor(r * terms / P).
  std::vector<PathUsage*> ranked;
  ranked.reserve(usage.size());
  for (PathUsage& entry : usage) {
    ranked.push_back(&entry);
  }
  std::sort(ranked.begin(), ranked.end(), [](const PathUsage* a, const PathUsage* b) {
    if (a->transfers != b->transfers) {
      return a->transfers > b->transfers;
    }
    return a->path < b->path;
  });
  const int path_count = static_cast<int>(ranked.size());
  for (int r = 0; r < path_count; ++r) {
    const int term_index = (r * progression.terms) / std::max(path_count, 1);
    ranked[static_cast<std::size_t>(r)]->time = progression.term(term_index);
  }

  // Write per-edge times, in ascending (parent, child) order.
  for (const model::Operation& op : assay.operations()) {
    const std::optional<DeviceId> parent_device = device_of[op.id().index()];
    if (!parent_device) {
      continue;
    }
    for (const OperationId child : assay.children(op.id())) {
      const std::optional<DeviceId> child_device = device_of[child.index()];
      if (!child_device) {
        continue;
      }
      if (*parent_device == *child_device) {
        plan.set_edge_time(op.id(), child, Minutes{0});
      } else {
        const schedule::DevicePath path =
            schedule::make_path(*parent_device, *child_device);
        plan.set_edge_time(
            op.id(), child,
            std::lower_bound(usage.begin(), usage.end(), path, path_before)->time);
      }
    }
  }
  return plan;
}

}  // namespace cohls::core
