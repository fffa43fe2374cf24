#include "schedule/validate.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "model/compatibility.hpp"

namespace cohls::schedule {

namespace {

struct Placement {
  int layer_index = -1;  // position in result.layers
  const ScheduledOperation* item = nullptr;
};

/// Occupation end of `item` on its device: completion plus the longest
/// outgoing transport to a same-layer child on a different device.
Minutes occupation_end(const ScheduledOperation& item, const model::Assay& assay,
                       const TransportPlan& transport,
                       const std::vector<Placement>& placements) {
  Minutes end = item.end();
  const Placement& self = placements[item.op.index()];
  for (const EdgeId edge : assay.child_edges(item.op)) {
    const Placement& other = placements[assay.edge_child(edge).index()];
    if (other.layer_index == self.layer_index && other.item->device != item.device) {
      end = std::max(end, item.end() + transport.edge_time(edge));
    }
  }
  return end;
}

}  // namespace

std::vector<diag::Diagnostic> certify_result(const SynthesisResult& result,
                                             const model::Assay& assay,
                                             const TransportPlan& transport) {
  COHLS_EXPECT(transport.fits(assay), "transport plan belongs to another assay");
  std::vector<diag::Diagnostic> diagnostics;
  const auto report = [&diagnostics](const char* code, const std::string& message) {
    diag::Diagnostic d;
    d.code = code;
    d.message = message;
    diagnostics.push_back(std::move(d));
  };
  const auto op_name = [&assay](OperationId id) {
    return "op '" + assay.operation(id).name() + "' (#" + std::to_string(id.value()) + ")";
  };

  // -- coverage: each operation exactly once ------------------------------
  // Indexed by operation id; an entry without an item is unscheduled.
  std::vector<Placement> placements(static_cast<std::size_t>(assay.operation_count()));
  for (int li = 0; li < static_cast<int>(result.layers.size()); ++li) {
    for (const ScheduledOperation& item : result.layers[static_cast<std::size_t>(li)].items) {
      if (!item.op.valid() || item.op.value() >= assay.operation_count()) {
        report(diag::codes::kUnknownOperation,
               "schedule references an operation outside the assay");
        continue;
      }
      Placement& placement = placements[item.op.index()];
      if (placement.item != nullptr) {
        report(diag::codes::kDuplicateSchedule,
               op_name(item.op) + " is scheduled more than once");
        continue;
      }
      placement = Placement{li, &item};
    }
  }
  for (const model::Operation& op : assay.operations()) {
    if (placements[op.id().index()].item == nullptr) {
      report(diag::codes::kMissingOperation,
             op_name(op.id()) + " is missing from the schedule");
    }
  }
  if (!diagnostics.empty()) {
    return diagnostics;  // structural problems make later checks meaningless
  }

  // -- per-item checks: start, duration, binding legality ------------------
  for (const model::Operation& op : assay.operations()) {
    const OperationId id = op.id();
    const ScheduledOperation& item = *placements[id.index()].item;
    if (item.start < Minutes{0}) {
      report(diag::codes::kNegativeStart,
             op_name(id) + " starts before the layer begins");
    }
    if (item.duration != op.duration()) {
      std::ostringstream msg;
      msg << op_name(id) << " scheduled with duration " << item.duration
          << " but the assay declares " << op.duration();
      report(diag::codes::kWrongDuration, msg.str());
    }
    if (!item.device.valid() || item.device.value() >= result.devices.size()) {
      report(diag::codes::kUnknownDevice,
             op_name(id) + " is bound to a device missing from the inventory");
      continue;
    }
    const model::Device& device = result.devices.device(item.device);
    if (!model::is_compatible(op, device.config)) {
      report(diag::codes::kIncompatibleBinding,
             op_name(id) + " is bound to an incompatible device #" +
                 std::to_string(item.device.value()));
    }
  }

  // -- dependency constraints ----------------------------------------------
  for (const model::Operation& op : assay.operations()) {
    const Placement& child = placements[op.id().index()];
    for (const EdgeId edge : op.parent_edges()) {
      const OperationId parent_id = assay.edge_parent(edge);
      const Placement& parent = placements[parent_id.index()];
      if (parent.layer_index > child.layer_index) {
        report(diag::codes::kParentLayerOrder,
               op_name(op.id()) + " is layered before its parent " + op_name(parent_id));
        continue;
      }
      const bool same_device = parent.item->device == child.item->device;
      const Minutes t =
          same_device ? Minutes{0} : transport.edge_time(edge);
      if (parent.layer_index == child.layer_index) {
        if (child.item->start < parent.item->end() + t) {
          std::ostringstream msg;
          msg << op_name(op.id()) << " starts at " << child.item->start
              << " before parent " << op_name(parent_id) << " completes at "
              << parent.item->end() << " plus transport " << t;
          report(diag::codes::kDependencyStart, msg.str());
        }
      } else if (child.item->start < t) {
        std::ostringstream msg;
        msg << op_name(op.id()) << " starts at " << child.item->start
            << " before its inherited reagent arrives (transport " << t << ")";
        report(diag::codes::kTransportStart, msg.str());
      }
    }
  }

  // -- device-conflict prevention ------------------------------------------
  std::vector<Minutes> occupied_until;
  for (const LayerSchedule& layer : result.layers) {
    occupied_until.clear();
    for (const ScheduledOperation& item : layer.items) {
      occupied_until.push_back(occupation_end(item, assay, transport, placements));
    }
    for (std::size_t a = 0; a < layer.items.size(); ++a) {
      for (std::size_t b = a + 1; b < layer.items.size(); ++b) {
        const ScheduledOperation& oa = layer.items[a];
        const ScheduledOperation& ob = layer.items[b];
        if (oa.device != ob.device) {
          continue;
        }
        if (oa.start < occupied_until[b] && ob.start < occupied_until[a]) {
          report(diag::codes::kDeviceOverlap,
                 op_name(oa.op) + " and " + op_name(ob.op) +
                     " overlap on device #" + std::to_string(oa.device.value()));
        }
      }
    }
  }

  // -- indeterminate operations end their layer -----------------------------
  for (const LayerSchedule& layer : result.layers) {
    std::vector<const ScheduledOperation*> indeterminate;
    for (const ScheduledOperation& item : layer.items) {
      if (assay.operation(item.op).indeterminate()) {
        indeterminate.push_back(&item);
      }
    }
    for (const ScheduledOperation* ind : indeterminate) {
      for (const ScheduledOperation& other : layer.items) {
        if (other.start > ind->end()) {
          report(diag::codes::kStartAfterIndeterminate,
                 op_name(other.op) + " starts after indeterminate " + op_name(ind->op) +
                     " may already have completed (constraint 14)");
        }
      }
      for (const OperationId child : assay.children(ind->op)) {
        const Placement& child_placement = placements[child.index()];
        if (&result.layers[static_cast<std::size_t>(child_placement.layer_index)] == &layer) {
          report(diag::codes::kIndeterminateSameLayerChild,
                 "indeterminate " + op_name(ind->op) + " has same-layer child " +
                     op_name(child));
        }
      }
    }
    for (std::size_t a = 0; a < indeterminate.size(); ++a) {
      for (std::size_t b = a + 1; b < indeterminate.size(); ++b) {
        if (indeterminate[a]->device == indeterminate[b]->device) {
          report(diag::codes::kIndeterminateSharedDevice,
                 "indeterminate " + op_name(indeterminate[a]->op) + " and " +
                     op_name(indeterminate[b]->op) +
                     " share a device; they must run in parallel");
        }
      }
    }
  }

  return diagnostics;
}

}  // namespace cohls::schedule
