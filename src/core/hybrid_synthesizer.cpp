#include "core/hybrid_synthesizer.hpp"

#include <algorithm>
#include <chrono>

#include "core/solve_hooks.hpp"

namespace cohls::core {

namespace {

/// Solves one layer, going through the optional layer-solution cache and
/// reporting the solve to the optional observer.
LayerOutcome solve_with_hooks(const schedule::LayerRequest& request,
                              const model::Assay& assay,
                              const schedule::TransportPlan& transport,
                              const SynthesisOptions& options,
                              const model::DeviceInventory& inventory) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  const LayerSolveContext context{request,       assay,          transport,
                                  options.costs, options.engine, inventory};

  LayerOutcome outcome;
  bool cache_hit = false;
  if (options.layer_cache != nullptr) {
    if (std::optional<LayerOutcome> cached = options.layer_cache->lookup(context)) {
      outcome = std::move(*cached);
      cache_hit = true;
    }
  }
  if (!cache_hit) {
    outcome = synthesize_layer(request, assay, transport, options.costs,
                               options.engine, inventory);
    // A solve truncated by cancellation would poison the cache: the next
    // identical context, uncancelled, could legitimately do better.
    if (options.layer_cache != nullptr && !outcome.milp_cancelled) {
      options.layer_cache->store(context, outcome);
    }
  }

  if (options.observer != nullptr) {
    LayerSolveEvent event;
    static_cast<milp::MilpStats&>(event) = outcome;
    event.operation_count = static_cast<int>(request.ops.size());
    event.cache_hit = cache_hit;
    event.used_ilp = outcome.used_ilp;
    event.seconds = std::chrono::duration<double>(Clock::now() - begin).count();
    options.observer->on_layer_solve(event);
  }
  return outcome;
}

}  // namespace

schedule::SynthesisResult run_pass(const model::Assay& assay, const LayerPlan& plan,
                                   const schedule::TransportPlan& transport,
                                   const SynthesisOptions& options_in,
                                   const std::vector<KnownDevice>& known_devices,
                                   const PassPolicy& policy, int* path_count) {
  // Let branch-and-bound poll the pass-level token between nodes, unless the
  // caller already installed a solver-specific one.
  SynthesisOptions options_with_cancel;
  const SynthesisOptions* effective = &options_in;
  if (options_in.cancel.can_cancel() && !options_in.engine.milp.cancel.can_cancel()) {
    options_with_cancel = options_in;
    options_with_cancel.engine.milp.cancel = options_in.cancel;
    effective = &options_with_cancel;
  }
  const SynthesisOptions& options = *effective;

  schedule::SynthesisResult result;
  result.devices = model::DeviceInventory(options.max_devices);
  // Pre-existing hardware (recovery: the surviving chip). An invalid creation
  // layer marks the device as a sunk cost no layer pays for.
  for (const model::DeviceConfig& config : policy.initial_devices) {
    result.devices.instantiate(config, LayerId{});
  }

  // The binding and paths of the layers solved so far. They move into each
  // layer's request and back out after the solve, so no layer copies them;
  // both stay empty, without storage, until the first layer binds.
  schedule::Binding prior_binding;
  schedule::PathMatrix existing_paths;
  std::vector<bool> hint_consumed(known_devices.size(), false);

  for (int li = 0; li < plan.layer_count(); ++li) {
    options.cancel.check("synthesis pass");
    schedule::LayerRequest request;
    request.layer = LayerId{li};
    request.ops = plan.layer(li);
    request.prior_binding = std::move(prior_binding);
    for (const model::Device& device : result.devices.devices()) {
      request.usable_devices.push_back(device.id);
    }
    // Hints: configurations the previous iteration's *later* layers
    // integrated (D \ D'_i), not yet re-integrated in this pass.
    for (std::size_t k = 0; k < known_devices.size(); ++k) {
      if (!hint_consumed[k] && known_devices[k].created_in_layer > li) {
        request.hints.push_back(
            schedule::DeviceHint{known_devices[k].config, static_cast<int>(k)});
      }
    }
    request.existing_paths = std::move(existing_paths);
    for (const OperationId op : request.ops) {
      const auto pin = policy.pinned.find(op);
      if (pin != policy.pinned.end()) {
        request.pinned.emplace(op, pin->second);
      }
    }
    request.allow_new_devices = policy.allow_new_devices;
    request.binds = policy.binds;
    request.new_config = policy.new_config;
    request.slot_size = policy.slot_size;

    LayerOutcome outcome =
        solve_with_hooks(request, assay, transport, options, result.devices);
    prior_binding = std::move(request.prior_binding);
    existing_paths = std::move(request.existing_paths);
    result.devices = std::move(outcome.inventory);
    for (const int key : outcome.result.consumed_hints) {
      hint_consumed[static_cast<std::size_t>(key)] = true;
    }
    if (prior_binding.size() == 0) {
      prior_binding = schedule::Binding(assay.operation_count());
      existing_paths.reserve(static_cast<std::size_t>(options.max_devices));
    }
    for (const auto& item : outcome.result.schedule.items) {
      prior_binding.bind(item.op, item.device);
    }
    // The paths this layer adds: every dependency edge into the layer whose
    // parent is bound to a different device. A parent is never layered
    // after its child, so every edge with both ends bound so far enters
    // this layer or an earlier one, and the matrix stays equal to
    // result.paths(assay).
    for (const auto& item : outcome.result.schedule.items) {
      for (const OperationId parent : assay.operation(item.op).parents()) {
        const DeviceId parent_device = prior_binding.device(parent);
        if (parent_device.valid() && parent_device != item.device) {
          existing_paths.insert(item.device, parent_device);
        }
      }
    }
    result.layers.push_back(std::move(outcome.result.schedule));
  }
  if (path_count != nullptr) {
    *path_count = existing_paths.count();
  }
  return result;
}

}  // namespace cohls::core
