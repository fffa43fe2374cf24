// The single definition of the paper's objective (Sec. 4.3):
//   C_t * sum_t + C_a * sum_a + C_pr * sum_pr + C_p * sum_p.
// Both the MILP decode path and the heuristic scheduler are scored here so
// cross-engine comparisons (and the solver-gap ablation) are meaningful.
#pragma once

#include "model/cost_model.hpp"
#include "schedule/types.hpp"

namespace cohls::schedule {

struct ObjectiveBreakdown {
  double time_minutes = 0.0;   ///< sum_t (fixed part only)
  double area = 0.0;           ///< sum_a over used devices
  double processing = 0.0;     ///< sum_pr over used devices
  double path_count = 0.0;     ///< sum_p
  double weighted_total = 0.0;
};

/// Scores a synthesis result. Only devices actually used by an operation
/// count toward area / processing (an unused inventory slot costs nothing).
[[nodiscard]] ObjectiveBreakdown evaluate_objective(const SynthesisResult& result,
                                                    const model::Assay& assay,
                                                    const model::CostModel& costs);
/// The same score from an execution time and a path count the caller
/// already holds (a synthesis pass ends holding both); they must be
/// result.total_time(assay) and result.path_count(assay).
[[nodiscard]] ObjectiveBreakdown evaluate_objective(const SynthesisResult& result,
                                                    const model::Assay& assay,
                                                    const model::CostModel& costs,
                                                    const SymbolicDuration& total_time,
                                                    int path_count);

}  // namespace cohls::schedule
