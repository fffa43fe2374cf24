// Per-layer engine selection. Small layers are solved exactly with the
// branch-and-bound MILP (the paper's per-layer ILP); every layer is also
// solved by the heuristic list scheduler, and the better-scoring result is
// kept. Layers above the engine's size thresholds use the heuristic alone.
#pragma once

#include "core/ilp_layer_model.hpp"
#include "core/options.hpp"
#include "milp/branch_and_bound.hpp"
#include "schedule/list_scheduler.hpp"

namespace cohls::core {

/// One layer's kept result. The MilpStats base carries the layer MILP's
/// search counters for the engine's metrics: zero (and one worker) when the
/// heuristic ran alone or the outcome came from a layer cache.
struct LayerOutcome : milp::MilpStats {
  schedule::LayerResult result;
  /// Inventory after this layer (devices the layer created are appended).
  model::DeviceInventory inventory{1};
  bool used_ilp = false;
  /// The layer-local objective of the kept result (for diagnostics).
  double score = 0.0;
};

/// Scores one layer's contribution to the paper's objective: C_t * layer
/// makespan + integration cost of devices the layer created + C_p * newly
/// created paths.
[[nodiscard]] double layer_score(const schedule::LayerResult& result,
                                 const model::DeviceInventory& inventory,
                                 const schedule::LayerRequest& request,
                                 const model::Assay& assay,
                                 const model::CostModel& costs);

/// Synthesizes one layer from `inventory` (left untouched; the returned
/// outcome carries the updated copy).
[[nodiscard]] LayerOutcome synthesize_layer(const schedule::LayerRequest& request,
                                            const model::Assay& assay,
                                            const schedule::TransportPlan& transport,
                                            const model::CostModel& costs,
                                            const EngineOptions& engine,
                                            const model::DeviceInventory& inventory);

}  // namespace cohls::core
