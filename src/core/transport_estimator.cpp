#include "core/transport_estimator.hpp"

#include <algorithm>
#include <utility>
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
  schedule::TransportPlan plan(fallback, assay);
  const schedule::Binding device_of = result.dense_binding(assay);
  const auto ends = [&](EdgeId edge) {
    return std::pair{device_of.device(assay.edge_parent(edge)),
                     device_of.device(assay.edge_child(edge))};
  };

  // Count how many transfers use each inter-device path: collect one entry
  // per transfer, sort by path and merge runs.
  std::vector<schedule::DevicePath> transfers;
  for (int e = 0; e < assay.edge_count(); ++e) {
    const auto [parent_device, child_device] = ends(EdgeId{e});
    if (parent_device.valid() && child_device.valid() && parent_device != child_device) {
      transfers.push_back(schedule::make_path(parent_device, child_device));
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

  // Write per-edge times.
  for (int e = 0; e < assay.edge_count(); ++e) {
    const auto [parent_device, child_device] = ends(EdgeId{e});
    if (!parent_device.valid() || !child_device.valid()) {
      continue;
    }
    const schedule::DevicePath path = schedule::make_path(parent_device, child_device);
    plan.set_edge_time(EdgeId{e}, parent_device == child_device
                                      ? Minutes{0}
                                      : std::lower_bound(usage.begin(), usage.end(), path,
                                                         path_before)
                                            ->time);
  }
  return plan;
}

}  // namespace cohls::core
