// LP solve entry point and result types. The one implementation
// is the sparse revised simplex (lp/revised_simplex.hpp) with native
// variable bounds (nonbasic variables rest at either bound; bound flips
// avoid explicit bound rows). This is the LP engine under the branch-and-
// bound MILP solver that substitutes for the paper's Gurobi dependency.
#pragma once

#include <string>
#include <vector>

#include "lp/model.hpp"

namespace cohls::lp {

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  /// A dual re-solve stopped early because its objective — a monotonically
  /// nondecreasing lower bound on the LP optimum — crossed the caller's
  /// cutoff (RevisedSimplex::set_objective_cutoff). The reported objective
  /// is a valid lower bound; values are not populated. For a branch-and-
  /// bound caller this is an exact prune, not a limit.
  CutoffReached,
};

[[nodiscard]] std::string to_string(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< one value per model variable when solved
  int iterations = 0;
};

/// Solves `model` (a minimization) from scratch: a one-shot
/// lp::RevisedSimplex cold solve. Callers that re-solve after bound changes
/// keep a RevisedSimplex and use its warm solve_from instead.
[[nodiscard]] LpSolution solve_lp(const LpModel& model);

}  // namespace cohls::lp
