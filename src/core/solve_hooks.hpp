// Hook points the concurrent batch engine (src/engine) plugs into the
// synthesis flow. They live in core so the flow stays free of engine
// dependencies: run_pass consults an optional LayerSolveCache before
// invoking the per-layer solver, and reports every layer solve to an
// optional SolveObserver. Both interfaces must be thread-safe when shared
// across concurrent syntheses — core calls them without locking.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/layer_synthesizer.hpp"

namespace cohls::core {

/// Everything synthesize_layer reads, bundled so cache implementations can
/// derive a complete solution signature from one place. One context serves
/// one solve: its inputs must not change between `lookup` and `store`.
struct LayerSolveContext {
  const schedule::LayerRequest& request;
  const model::Assay& assay;
  const schedule::TransportPlan& transport;
  const model::CostModel& costs;
  const EngineOptions& engine;
  const model::DeviceInventory& inventory;
  /// Memo slot for the attached cache: the key its `lookup` derived (text
  /// and hash), so the `store` of the same solve need not derive it again.
  /// Empty until a cache fills it; core never reads it.
  mutable std::string cache_key{};
  mutable std::uint64_t cache_key_hash = 0;
};

/// Memoization of per-layer solves. `lookup` returns a LayerOutcome
/// equivalent to what synthesize_layer would produce for the context (with
/// the outcome's inventory already extended by any devices the cached
/// solution instantiates), or nullopt on a miss. Implementations decide
/// which contexts are cacheable; returning nullopt is always sound.
class LayerSolveCache {
 public:
  virtual ~LayerSolveCache() = default;
  [[nodiscard]] virtual std::optional<LayerOutcome> lookup(
      const LayerSolveContext& context) = 0;
  virtual void store(const LayerSolveContext& context, const LayerOutcome& outcome) = 0;
};

/// One per-layer solve, as seen by run_pass. The MilpStats base is the
/// outcome's search work: zero for heuristic-only and cached solves.
struct LayerSolveEvent : milp::MilpStats {
  int operation_count = 0;
  bool cache_hit = false;
  bool used_ilp = false;
  /// Wall time of the solve (or of the cache lookup, when it hit).
  double seconds = 0.0;
};

/// Metrics sink; the engine adapts this onto its MetricsRegistry.
class SolveObserver {
 public:
  virtual ~SolveObserver() = default;
  virtual void on_layer_solve(const LayerSolveEvent& event) = 0;
};

}  // namespace cohls::core
