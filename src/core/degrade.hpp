// The flow's one wall-clock degrade path. Layer solves are budgeted in work
// (EngineOptions::milp), so a synthesis result never depends on the host;
// the wall clock enters only as an extra budget a caller lays over a whole
// step — the batch engine's stall watchdog, a recovery mission's round
// budget — and when that budget runs out the step re-runs heuristic-only,
// flagged `degraded`, never silently.
#pragma once

#include "core/options.hpp"
#include "util/cancellation.hpp"

namespace cohls::core {

/// Runs `step(options)` under an extra wall budget of `budget_seconds`
/// (<= 0: none) laid over `options.cancel`. When that budget expires, the
/// step re-runs with the MILP off (engine.enable_ilp = false) under the
/// caller's own token, and `degraded` is set. The caller's token, an
/// explicit stop or its own deadline, always propagates as CancelledError:
/// a degraded re-run never outlives the caller's deadline.
template <typename Step>
auto run_or_degrade(const SynthesisOptions& options, double budget_seconds, bool& degraded,
                    Step&& step) {
  if (budget_seconds > 0.0) {
    SynthesisOptions budgeted = options;
    budgeted.cancel = options.cancel.with_earlier_deadline(budget_seconds);
    try {
      return step(budgeted);
    } catch (const CancelledError&) {
      if (options.cancel.cancelled()) {
        throw;
      }
    }
    degraded = true;
    SynthesisOptions heuristic = options;
    heuristic.engine.enable_ilp = false;
    return step(heuristic);
  }
  return step(options);
}

}  // namespace cohls::core
