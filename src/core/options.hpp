// User-facing knobs of the synthesis flow, mirroring the paper's
// experimental setup: |D| (max devices), the layer threshold `t`, the
// transportation constant and progression, the cost model, and the engine
// configuration (exact MILP for small layers, heuristic beyond).
#pragma once

#include "core/layering.hpp"
#include "layout/placement.hpp"
#include "layout/transport_from_layout.hpp"
#include "milp/branch_and_bound.hpp"
#include "model/cost_model.hpp"
#include "schedule/transport_plan.hpp"
#include "util/cancellation.hpp"

namespace cohls::core {

class LayerSolveCache;  // solve_hooks.hpp
class SolveObserver;    // solve_hooks.hpp

/// How per-edge transport times are refined between re-synthesis
/// iterations (Sec. 4.1). `Progression` is the paper's method: path-usage
/// ranks map onto a user-defined arithmetic progression. `Layout`
/// additionally sketches a grid placement of the devices (usage-weighted
/// annealing) and derives times from the placed Manhattan channel lengths.
enum class TransportRefinement {
  Progression,
  Layout,
};

/// Engine selection per layer. The paper solves every layer with Gurobi;
/// our in-tree branch-and-bound is exact but slower, so layers above the
/// size thresholds fall back to the list-scheduling heuristic. Whenever the
/// MILP produces a solution, the better-scoring of the two is kept.
struct EngineOptions {
  bool enable_ilp = true;
  /// Exact MILP only for layers with at most this many operations...
  /// The gate bounds the model a layer solve builds; the pivot budget of
  /// `milp` bounds the work spent on it. Measured in those units on random
  /// 16-op assays (t = 3, |D| = 10): at 8 ops / 7 devices a layer solve
  /// spends a median 5.8k pivots and p95 6.9k (the budget plus the one LP
  /// solve it may run past it) in ~80 nodes, at 300 us per pivot (p95
  /// 740 us, 4-core Xeon, Release) — under 6 s per layer. A pivot costs
  /// more as the model grows (the basis inverse is dense): with all 7
  /// devices offered as free slots instead of 3, it costs 2.3 ms and the
  /// root LP alone outruns the budget.
  int ilp_max_ops = 8;
  /// ...and at most this many devices visible to the layer model
  /// (inherited + new slots).
  int ilp_max_devices = 7;
  /// New (freely configurable) device slots offered to the layer model.
  int ilp_new_slots = 3;
  /// Budget per layer solve. The MILP runs once per layer per re-synthesis
  /// iteration with the heuristic result as a safety net, so the default
  /// budget is deliberately small; raise it to chase exactness. The default
  /// counts work (nodes and simplex pivots), not wall time, so a layer keeps
  /// the same result on every host and under any load. 6000 pivots is what
  /// the former 2 s wall budget reached on the kinase |D| = 10 fixture on an
  /// idle host (EXPERIMENTS.md).
  milp::MilpOptions milp = default_layer_milp_options();

  [[nodiscard]] static milp::MilpOptions default_layer_milp_options() {
    milp::MilpOptions options;
    options.max_nodes = 20000;
    options.max_pivots = 6000;
    return options;
  }
};

struct SynthesisOptions {
  /// |D|: maximal number of devices integrated on the chip.
  int max_devices = 25;
  LayeringOptions layering{};
  /// The constant `t` assigned to every transfer in the first pass. The
  /// first estimate is deliberately conservative (the progression's upper
  /// end plus margin); re-synthesis refines it downward per path.
  Minutes initial_transport{5};
  /// The user-defined arithmetic progression of refined transport times.
  schedule::TransportProgression progression{};
  /// Refinement method and, for Layout, its placement / distance knobs.
  TransportRefinement transport_refinement = TransportRefinement::Progression;
  layout::PlacementOptions placement{};
  layout::LayoutTransportOptions layout_transport{};
  model::CostModel costs{};
  EngineOptions engine{};
  /// Re-synthesis repeats while relative improvement exceeds this (the
  /// paper iterates on > 10%).
  double resynthesis_improvement_threshold = 0.10;
  /// Hard cap on re-synthesis iterations.
  int max_resynthesis_iterations = 6;
  /// Multi-start: run the whole flow this many times with different
  /// layering tie-break seeds and keep the best result. 1 = single run.
  int restarts = 1;
  /// Cooperative cancellation: checked between layers, re-synthesis
  /// iterations and branch-and-bound nodes. When it fires, synthesize()
  /// throws CancelledError. The default token never cancels.
  CancellationToken cancel{};
  /// Optional memoization of per-layer solves (owned by the caller — the
  /// batch engine shares one cache across jobs). Null disables caching.
  LayerSolveCache* layer_cache = nullptr;
  /// Optional per-layer-solve metrics sink (owned by the caller).
  SolveObserver* observer = nullptr;
};

}  // namespace cohls::core
