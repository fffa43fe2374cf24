// Depth-first rounding/fixing dive for the branch-and-bound root.
//
// The search's worst failure mode on the layer MILPs was fan-out with no
// incumbent: every near-root node survives the bound test because there is
// nothing to prune against, and the search burns its whole node budget
// before anything integral is found. The dive fixes that by spending a few
// warm LP re-solves *before* any branching: repeatedly fix the
// least-fractional integer column to its nearest value and re-solve from the
// previous optimal basis, backtracking once per column (flip to the other
// neighboring integer) when a fix turns the LP infeasible. A successful dive
// ends at an integral, LP-feasible point — an incumbent the search can
// prune against from the root's children on. Dive LP solves are charged to
// MilpStats::milp_dive_lp_solves, never to the node budget, and the dive
// stops early when its owner's budget check (DiveHooks::stop) fires.
#pragma once

#include <functional>
#include <vector>

#include "lp/simplex.hpp"
#include "milp/model.hpp"

namespace cohls::milp {

struct DiveResult {
  bool found = false;           ///< the dive reached a validated integral point
  std::vector<double> values;   ///< that point, in the hooks' variable space
  double objective = 0.0;       ///< its objective value
  long lp_solves = 0;           ///< LP re-solves the dive consumed
};

/// How the dive drives its owner's LP workspace. The owner keeps control of
/// bound bookkeeping (so every tightening the dive applies is recorded for
/// undo) and of how a re-solve warm-starts; the dive only decides *what* to
/// fix next.
struct DiveHooks {
  /// Re-solves the current bound box, warm from the last optimal basis.
  std::function<lp::LpSolution()> resolve;
  /// Tightens one column to [lower, upper]; the owner records the undo.
  std::function<void(lp::Col, double lower, double upper)> set_bounds;
  /// Polled before every re-solve; returning true ends the dive there (the
  /// owner's deadline and cancellation check). Optional.
  std::function<bool()> stop;
  /// The current effective bounds of the box being dived (owner-maintained;
  /// the dive reads them to clamp rounding targets).
  const std::vector<double>* lower = nullptr;
  const std::vector<double>* upper = nullptr;
};

/// Runs the dive from `root_relax` (an Optimal relaxation of the current
/// box). On return the owner's box still carries the dive's fixings — the
/// owner undoes them through its own undo log. The returned point, when
/// found, is validated against `model` (is_feasible at `feasibility_tolerance`).
[[nodiscard]] DiveResult dive_for_incumbent(const MilpModel& model,
                                            const DiveHooks& hooks,
                                            const lp::LpSolution& root_relax,
                                            double integrality_tolerance,
                                            double feasibility_tolerance,
                                            long max_lp_solves);

}  // namespace cohls::milp
