// Branch and bound against an exact reference on random mixed-integer
// programs: enumerate every point of the integer grid, solve the continuous
// remainder of each with the dense-tableau LP (tests/support), and keep the
// best. The solver's presolve, warm dual re-solves and pseudocost
// branching must reproduce that optimum (and infeasibility) exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "support/lp_oracles.hpp"
#include "util/rng.hpp"

namespace cohls::milp {
namespace {

MilpModel make_random_milp(std::uint64_t seed) {
  Rng rng{seed};
  MilpModel model;
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  for (int j = 0; j < n; ++j) {
    const auto shape = rng.uniform_int(0, 3);
    if (shape == 0) {
      model.add_binary(static_cast<double>(rng.uniform_int(-5, 5)));
    } else if (shape == 1) {
      const int lb = static_cast<int>(rng.uniform_int(-3, 1));
      model.add_variable(VarKind::Continuous, lb, lb + rng.uniform_int(1, 6),
                         static_cast<double>(rng.uniform_int(-4, 4)));
    } else {
      const int lb = static_cast<int>(rng.uniform_int(-2, 1));
      model.add_variable(VarKind::Integer, lb, lb + rng.uniform_int(0, 5),
                         static_cast<double>(rng.uniform_int(-5, 5)));
    }
  }
  const int m = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense_draw = rng.uniform_int(0, 2);
    const auto sense = sense_draw == 0   ? lp::RowSense::LessEqual
                       : sense_draw == 1 ? lp::RowSense::GreaterEqual
                                         : lp::RowSense::Equal;
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.uniform_int(-8, 8)));
  }
  return model;
}

/// Exact optimum by enumeration: every integer column is fixed to each
/// value of its (finite) box in turn and the remaining LP over the
/// continuous columns is solved by the dense-tableau oracle. Returns the
/// best objective, or nothing when no grid point admits a feasible LP.
std::optional<double> enumerate_optimum(const MilpModel& model) {
  std::vector<lp::Col> integers;
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    if (model.is_integer(c)) {
      integers.push_back(c);
    }
  }
  lp::LpModel fixed = model.lp();
  std::vector<double> point;
  for (const lp::Col c : integers) {
    point.push_back(std::ceil(model.lp().lower_bound(c)));
  }
  std::optional<double> best;
  while (true) {
    for (std::size_t k = 0; k < integers.size(); ++k) {
      fixed.set_bounds(integers[k], point[k], point[k]);
    }
    const lp::LpSolution remainder = oracles::solve_lp_dense(fixed);
    if (remainder.status == lp::LpStatus::Optimal &&
        (!best || remainder.objective < *best)) {
      best = remainder.objective;
    }
    std::size_t k = 0;
    for (; k < integers.size(); ++k) {
      if (++point[k] <= std::floor(model.lp().upper_bound(integers[k]))) {
        break;
      }
      point[k] = std::ceil(model.lp().lower_bound(integers[k]));
    }
    if (k == integers.size()) {
      return best;
    }
  }
}

class MilpSolverParity : public ::testing::TestWithParam<int> {};

TEST_P(MilpSolverParity, AllConfigurationsAgree) {
  const MilpModel model =
      make_random_milp(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
  const std::optional<double> expected = enumerate_optimum(model);
  const MilpSolution sol = solve_milp(model);
  if (expected.has_value()) {
    ASSERT_EQ(sol.status, MilpStatus::Optimal)
        << "enumeration found " << *expected << " but solver says "
        << to_string(sol.status);
    EXPECT_NEAR(sol.objective, *expected, 1e-6);
    EXPECT_TRUE(model.is_feasible(sol.values, 1e-5));
  } else {
    EXPECT_EQ(sol.status, MilpStatus::Infeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpSolverParity, ::testing::Range(0, 200));

TEST(MilpSolverStats, WarmSolvesDominateOnBranchyInstances) {
  // Identical weight-2 items against an odd capacity force a fractional
  // relaxation at every level, so the search must branch repeatedly; every
  // child node should warm-start off its parent's basis.
  MilpModel m;
  std::vector<lp::Term> row;
  for (int i = 0; i < 10; ++i) {
    row.emplace_back(m.add_binary(-1.0 - 0.01 * i), 2.0);
  }
  m.add_constraint(std::move(row), lp::RowSense::LessEqual, 7.0);
  const MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -3.0 - 0.01 * (9 + 8 + 7), 1e-6);
  EXPECT_GT(sol.milp_nodes, 1);
  EXPECT_EQ(sol.lp_cold_solves, 1);  // only the root solves from scratch
  EXPECT_GE(sol.lp_warm_solves, sol.milp_nodes - 1);
  EXPECT_GT(sol.lp_pivots, 0);
}

TEST(MilpPresolve, FullyFixedModelRestoresSolution) {
  // Every column pinned by singleton equalities: presolve empties the model
  // and the solver must still report the restored incumbent.
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, 2.0);
  const auto y = m.add_variable(VarKind::Continuous, 0, 10, 1.0);
  m.add_constraint({{x, 1.0}}, lp::RowSense::Equal, 4.0);
  m.add_constraint({{y, 2.0}}, lp::RowSense::Equal, 3.0);
  const MilpSolution sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.values[x], 4.0, 1e-9);
  EXPECT_NEAR(sol.values[y], 1.5, 1e-9);
  EXPECT_NEAR(sol.objective, 9.5, 1e-9);
  EXPECT_NEAR(sol.best_bound, 9.5, 1e-9);
}

TEST(MilpPresolve, IntegerFixedToFractionIsInfeasible) {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, 1.0);
  m.add_constraint({{x, 2.0}}, lp::RowSense::Equal, 5.0);  // x = 2.5
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

}  // namespace
}  // namespace cohls::milp
