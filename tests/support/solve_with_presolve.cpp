#include "lp/presolve.hpp"
#include "support/lp_oracles.hpp"

namespace cohls::oracles {

lp::LpSolution solve_lp_with_presolve(const lp::LpModel& model,
                                      const lp::SimplexOptions& options) {
  const lp::Presolved pre = lp::presolve(model);
  if (pre.infeasible()) {
    lp::LpSolution solution;
    solution.status = lp::LpStatus::Infeasible;
    return solution;
  }
  lp::LpSolution reduced = lp::solve_lp(pre.model(), options);
  if (reduced.status != lp::LpStatus::Optimal) {
    return reduced;
  }
  lp::LpSolution full = reduced;
  full.values = pre.restore(reduced.values);
  full.objective = model.objective_value(full.values);
  return full;
}

}  // namespace cohls::oracles
