// Test-only LP references. The library ships one LP engine, the revised
// simplex behind lp::solve_lp; these independent solvers exist so the test
// suites can check it against an exact reference.
#pragma once

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace cohls::oracles {

/// Solves `model` (a minimization) with the dense-tableau two-phase primal
/// simplex. Same statuses and bounded-variable semantics as lp::solve_lp;
/// it never reports CutoffReached.
[[nodiscard]] lp::LpSolution solve_lp_dense(const lp::LpModel& model);

/// lp::presolve, then lp::solve_lp on the reduced model, then restore.
/// Statuses mirror lp::solve_lp.
[[nodiscard]] lp::LpSolution solve_lp_with_presolve(const lp::LpModel& model);

}  // namespace cohls::oracles
