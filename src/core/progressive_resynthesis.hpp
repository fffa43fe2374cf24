// Progressive re-synthesis (Sec. 3.2) — the outer loop and the library's
// main entry point. The first pass synthesizes layers with forward-only
// device inheritance and a constant transport estimate; each further
// iteration re-runs all layers with (a) transport times refined from the
// previous binding (Sec. 4.1) and (b) the previous iteration's device usage
// offered to every layer (D \ D'_i), so earlier layers can exploit devices
// that later layers integrate anyway (Fig. 6). Iteration repeats while the
// weighted objective improves by more than the configured threshold (the
// paper iterates on > 10%).
#pragma once

#include <vector>

#include "core/hybrid_synthesizer.hpp"
#include "core/options.hpp"
#include "schedule/objective.hpp"

namespace cohls::core {

/// Table-3-style record of one iteration.
struct IterationRecord {
  SymbolicDuration execution_time;
  int device_count = 0;
  int path_count = 0;
  schedule::ObjectiveBreakdown objective;
};

struct SynthesisReport {
  /// The best result across iterations (ties favour earlier iterations).
  schedule::SynthesisResult result;
  LayerPlan plan{std::vector<std::vector<OperationId>>{}};
  /// iterations[0] is the initial pass; [k] the k-th re-synthesis.
  std::vector<IterationRecord> iterations;
  /// The index of `result`'s record in `iterations`.
  std::size_t kept_iteration = 0;
  /// Transport plan the best result was synthesized (and validated) under.
  schedule::TransportPlan transport{Minutes{0}};

  /// The record of `result`: its execution time, path count and objective.
  [[nodiscard]] const IterationRecord& kept() const { return iterations.at(kept_iteration); }
};

/// Full flow: layering -> initial pass -> progressive re-synthesis.
/// `policy` customizes binding (used by the conventional baseline).
[[nodiscard]] SynthesisReport synthesize(const model::Assay& assay,
                                         const SynthesisOptions& options = {},
                                         const PassPolicy& policy = {});

}  // namespace cohls::core
