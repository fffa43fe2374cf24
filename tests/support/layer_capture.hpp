// Test-only capture of paper-protocol layer models. Synthesizes a protocol
// with a LayerSolveCache that never hits and records, for the first layer
// solves that fit the benchmark capture box (<= 12 ops, <= 10 visible
// devices, no inherited devices), the inputs core::synthesize_layer would
// hand to core::IlpLayerModel with the gate opened to that box. These are
// the milp-closure instances of the end-to-end benchmark; the layer-model
// digest test and the model-build micro benchmarks rebuild models from them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/ilp_layer_model.hpp"
#include "model/assay.hpp"
#include "model/cost_model.hpp"
#include "schedule/transport_plan.hpp"

namespace cohls::oracles {

/// Everything an IlpLayerModel is built from. The model keeps references to
/// `assay`, `transport` and `costs`, so build it from a capture that stays
/// put.
struct LayerCapture {
  std::string name;  ///< e.g. "case2-t10-L0#1"
  std::shared_ptr<const model::Assay> assay;
  core::IlpLayerInputs inputs;
  schedule::TransportPlan transport;
  model::CostModel costs;
};

/// Synthesizes `assay` at indeterminate threshold `threshold` and returns
/// the first `cap` layer solves that fit the capture box, in call order.
/// Names are `<tag>-t<threshold>-L<layer>#<n>`.
[[nodiscard]] std::vector<LayerCapture> capture_layers(const std::string& tag,
                                                       model::Assay assay, int threshold,
                                                       std::size_t cap);

/// Cases 2 (gene expression) and 3 (RT-qPCR) at t = 10, 5, 3 and 2, two
/// captures each: the twelve milp-closure instances.
[[nodiscard]] std::vector<LayerCapture> capture_closure_layers();

}  // namespace cohls::oracles
