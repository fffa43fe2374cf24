#include "support/layer_signature_reference.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "util/check.hpp"

namespace cohls::oracles {

namespace {

void put_double(std::ostringstream& out, double value) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
}

void put_config(std::ostringstream& out, const model::DeviceConfig& config) {
  out << (config.container == model::ContainerKind::Ring ? 'R' : 'C')
      << static_cast<int>(config.capacity) << "a{";
  bool first = true;
  for (const model::AccessoryId id : config.accessories) {
    out << (first ? "" : ",") << id;
    first = false;
  }
  out << '}';
}

void put_op_attributes(std::ostringstream& out, const model::Operation& op) {
  out << " c=";
  if (op.container().has_value()) {
    out << (*op.container() == model::ContainerKind::Ring ? 'R' : 'C');
  } else {
    out << '*';
  }
  out << " k=";
  if (op.capacity().has_value()) {
    out << static_cast<int>(*op.capacity());
  } else {
    out << '*';
  }
  out << " a{";
  bool first = true;
  for (const model::AccessoryId id : op.accessories()) {
    out << (first ? "" : ",") << id;
    first = false;
  }
  out << "} d=" << op.duration().count() << (op.indeterminate() ? " ind" : "");
}

}  // namespace

std::string layer_signature_reference(const core::LayerSolveContext& context) {
  const schedule::LayerRequest& request = context.request;
  const model::Assay& assay = context.assay;

  // Canonical operation numbering: dense rank in id order, over the layer's
  // ops plus the full descendant cone (the scheduler's pipeline lookahead
  // reads descendant attributes arbitrarily deep).
  std::set<OperationId> cone(request.ops.begin(), request.ops.end());
  std::vector<OperationId> frontier(request.ops.begin(), request.ops.end());
  while (!frontier.empty()) {
    const OperationId current = frontier.back();
    frontier.pop_back();
    for (const OperationId child : assay.children(current)) {
      if (cone.insert(child).second) {
        frontier.push_back(child);
      }
    }
  }
  std::map<OperationId, int> rank;
  for (const OperationId id : cone) {
    rank.emplace(id, static_cast<int>(rank.size()));
  }
  const std::set<OperationId> in_layer(request.ops.begin(), request.ops.end());

  // Canonical device numbering: position in the inherited inventory.
  std::map<DeviceId, int> device_rank;
  for (const DeviceId id : request.usable_devices) {
    device_rank.emplace(id, static_cast<int>(device_rank.size()));
  }

  std::ostringstream out;
  out << "cohls-layer-sig v4\n";

  // Engine budgets — a different budget may legitimately change the result.
  const core::EngineOptions& engine = context.engine;
  out << "engine ilp=" << engine.enable_ilp << " ops=" << engine.ilp_max_ops
      << " dev=" << engine.ilp_max_devices << " slots=" << engine.ilp_new_slots
      << " nodes=" << engine.milp.max_nodes << " pivots=" << engine.milp.max_pivots
      << " round=" << engine.milp.enable_rounding_heuristic << "\n";

  // Cost model and registry processing costs.
  const model::CostModel& costs = context.costs;
  out << "w";
  for (const double w : {costs.weight_time(), costs.weight_area(),
                         costs.weight_processing(), costs.weight_paths()}) {
    out << ' ';
    put_double(out, w);
  }
  out << "\narea";
  for (const model::ContainerKind kind :
       {model::ContainerKind::Ring, model::ContainerKind::Chamber}) {
    for (const model::Capacity capacity : model::kAllCapacities) {
      if (!model::capacity_allowed(kind, capacity)) {
        continue;
      }
      out << ' ';
      put_double(out, costs.area(kind, capacity));
      out << '/';
      put_double(out, costs.container_processing(kind, capacity));
    }
  }
  out << "\nacc";
  const model::AccessoryRegistry& registry = assay.registry();
  const int accessory_count = registry.count();
  for (model::AccessoryId id = 0; id < accessory_count; ++id) {
    out << ' ';
    put_double(out, registry.processing_cost(id));
  }
  out << '\n';

  // Layer-request scalars. The layer id itself is deliberately absent: it
  // only tags the output and is re-applied on decode.
  out << "req slot=" << request.slot_size.count() << " new=" << request.allow_new_devices
      << " free=" << (context.inventory.max_devices() - context.inventory.size())
      << " t0=" << context.transport.uniform_time().count() << "\n";

  // Inherited devices, in canonical (inventory) order.
  for (const DeviceId id : request.usable_devices) {
    out << "dev ";
    put_config(out, context.inventory.device(id).config);
    out << '\n';
  }
  // Hints, in request order (the order is visible to the solver).
  for (const schedule::DeviceHint& hint : request.hints) {
    out << "hint ";
    put_config(out, hint.config);
    out << '\n';
  }
  // Existing paths between inherited devices, canonically numbered.
  std::vector<std::pair<int, int>> paths;
  for (const schedule::DevicePath& path : request.existing_paths) {
    const auto a = device_rank.find(path.first);
    const auto b = device_rank.find(path.second);
    COHLS_ASSERT(a != device_rank.end() && b != device_rank.end(),
                 "existing path references a device outside the inventory");
    paths.emplace_back(std::min(a->second, b->second), std::max(a->second, b->second));
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& [a, b] : paths) {
    out << "path " << a << '-' << b << '\n';
  }

  // Operations of the cone in canonical order. Layer members carry their
  // full scheduling context (parent edges with transport, prior bindings);
  // cone-only members carry the attributes the lookahead reads.
  for (const OperationId id : cone) {
    const model::Operation& op = assay.operation(id);
    const bool member = in_layer.count(id) > 0;
    out << "op " << rank.at(id) << (member ? " L" : " D");
    put_op_attributes(out, op);
    if (member) {
      out << " par[";
      bool first = true;
      for (const OperationId parent : op.parents()) {
        out << (first ? "" : " ");
        first = false;
        const std::int64_t t = context.transport.edge_time(parent, id).count();
        if (in_layer.count(parent)) {
          out << 'L' << rank.at(parent) << '@' << t;
        } else {
          const auto prior = request.prior_binding.find(parent);
          if (prior != request.prior_binding.end()) {
            const auto bound = device_rank.find(prior->second);
            COHLS_ASSERT(bound != device_rank.end(),
                         "prior binding references a device outside the inventory");
            out << 'P' << bound->second << '@' << t;
          } else {
            out << "U@" << t;
          }
        }
      }
      out << ']';
    }
    out << " ch[";
    std::vector<std::pair<int, std::int64_t>> children;
    for (const OperationId child : assay.children(id)) {
      children.emplace_back(rank.at(child), context.transport.edge_time(id, child).count());
    }
    std::sort(children.begin(), children.end());
    bool first = true;
    for (const auto& [child_rank, t] : children) {
      out << (first ? "" : " ") << child_rank << '@' << t;
      first = false;
    }
    out << "]\n";
  }

  return out.str();
}

}  // namespace cohls::oracles
