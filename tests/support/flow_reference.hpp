// Test-only references for the synthesis flow's bookkeeping: the original
// std::map / std::set implementations of the result's path set, the
// objective, the transport refinement, the certifier and Algorithm 1's
// layering with its eviction min-cut. The library versions index flat arrays
// by the dense operation ids instead; the differential tests hold them to
// identical paths, bit-identical objectives, equal edge times, identical
// diagnostic sequences, identical layer plans and identical eviction costs.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/hybrid_synthesizer.hpp"
#include "core/layering.hpp"
#include "diag/diagnostic.hpp"
#include "model/assay.hpp"
#include "model/cost_model.hpp"
#include "schedule/objective.hpp"
#include "schedule/transport_plan.hpp"
#include "schedule/types.hpp"

namespace cohls::oracles {

/// schedule::SynthesisResult::paths over a std::map binding.
[[nodiscard]] std::set<schedule::DevicePath> paths_reference(
    const schedule::SynthesisResult& result, const model::Assay& assay);

/// schedule::evaluate_objective with a std::set of used devices.
[[nodiscard]] schedule::ObjectiveBreakdown evaluate_objective_reference(
    const schedule::SynthesisResult& result, const model::Assay& assay,
    const model::CostModel& costs);

/// The edge parent -> child, looked up by its endpoints: the first of
/// `child`'s parent entries that names `parent`. Throws PreconditionError
/// when there is none.
[[nodiscard]] EdgeId edge_between(const model::Assay& assay, OperationId parent,
                                  OperationId child);

/// The transport time of edge_between(assay, parent, child).
[[nodiscard]] Minutes edge_time_between(const schedule::TransportPlan& transport,
                                        const model::Assay& assay, OperationId parent,
                                        OperationId child);

/// Refined transport times keyed by (parent, child).
using EdgeTimes = std::map<std::pair<OperationId, OperationId>, Minutes>;

/// core::refine_transport with std::map path usage and path times: the
/// time of every edge whose endpoints are both bound (other edges keep the
/// fallback).
[[nodiscard]] EdgeTimes refine_transport_reference(
    const schedule::SynthesisResult& result, const model::Assay& assay,
    const schedule::TransportProgression& progression);

/// schedule::certify_result with a std::map of placements and one
/// occupation-end computation per same-device pair.
[[nodiscard]] std::vector<diag::Diagnostic> certify_result_reference(
    const schedule::SynthesisResult& result, const model::Assay& assay,
    const schedule::TransportPlan& transport);

/// The bookkeeping one layer of a pass hands its solve: the binding of the
/// earlier layers and the paths they committed.
struct LayerBookkeeping {
  std::map<OperationId, DeviceId> prior_binding;
  std::set<schedule::DevicePath> existing_paths;
};

/// core::run_pass with the binding in a std::map and the paths in a
/// std::set. Each layer's request gets dense copies of them; `layers`
/// receives the map and the set as each layer saw them. Solves go straight
/// to core::synthesize_layer (no cache, no observer).
[[nodiscard]] schedule::SynthesisResult run_pass_reference(
    const model::Assay& assay, const core::LayerPlan& plan,
    const schedule::TransportPlan& transport, const core::SynthesisOptions& options,
    const std::vector<core::KnownDevice>& known_devices, const core::PassPolicy& policy,
    std::vector<LayerBookkeeping>& layers);

/// core::eviction_cost over whole-assay masks: the cone is the layer's
/// ancestors of `op` in the whole assay, and every call builds a fresh
/// flow network.
[[nodiscard]] core::EvictionCost eviction_cost_reference(
    const model::Assay& assay, const std::vector<OperationId>& layer_ops, OperationId op);

/// Sees each layer of a reference layering run: once as the dependency
/// phase leaves it (`after_eviction` false) and again after every eviction.
using LayerObserver =
    std::function<void(const std::vector<OperationId>& layer, bool after_eviction)>;

/// core::layer_assay with one ancestor search per indeterminate operation
/// in the dependency phase and every candidate's eviction cost recomputed
/// (by eviction_cost_reference) in every round of the resource phase.
[[nodiscard]] core::LayerPlan layer_assay_reference(const model::Assay& assay,
                                                    const core::LayeringOptions& options,
                                                    const LayerObserver& observe = {});

}  // namespace cohls::oracles
