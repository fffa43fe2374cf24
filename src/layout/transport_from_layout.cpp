#include "layout/transport_from_layout.hpp"

#include "util/check.hpp"

namespace cohls::layout {

schedule::TransportPlan transport_from_layout(const Placement& placement,
                                              const schedule::SynthesisResult& result,
                                              const model::Assay& assay,
                                              const LayoutTransportOptions& options) {
  COHLS_EXPECT(options.minimum >= Minutes{0} && options.per_cell >= Minutes{0} &&
                   options.fallback >= Minutes{0},
               "layout transport times must be non-negative");
  schedule::TransportPlan plan(options.fallback, assay);
  const schedule::Binding device_of = result.dense_binding(assay);
  for (int e = 0; e < assay.edge_count(); ++e) {
    const EdgeId edge{e};
    const DeviceId parent_device = device_of.device(assay.edge_parent(edge));
    const DeviceId child_device = device_of.device(assay.edge_child(edge));
    if (!parent_device.valid() || !child_device.valid()) {
      continue;
    }
    if (parent_device == child_device) {
      plan.set_edge_time(edge, Minutes{0});
      continue;
    }
    const int distance = placement.distance(parent_device, child_device);
    plan.set_edge_time(edge, options.minimum + (distance - 1) * options.per_cell);
  }
  return plan;
}

}  // namespace cohls::layout
