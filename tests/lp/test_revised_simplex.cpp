// Differential tests for the sparse revised simplex against the dense
// tableau reference (tests/support), plus warm-start coverage: a dual re-solve from the
// optimal basis after a bound tightening must match a cold solve exactly
// (status and objective) — that equivalence is what lets branch and bound
// reuse parent bases without changing any result.
#include "lp/revised_simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "support/lp_oracles.hpp"
#include "util/rng.hpp"

namespace cohls::lp {
namespace {

LpModel make_random_bounded_lp(std::uint64_t seed, int max_vars = 8, int max_rows = 8) {
  Rng rng{seed};
  LpModel model;
  const int n = static_cast<int>(rng.uniform_int(1, max_vars));
  const int m = static_cast<int>(rng.uniform_int(0, max_rows));
  for (int j = 0; j < n; ++j) {
    // Mix of bounded, half-bounded and free variables.
    const auto shape = rng.uniform_int(0, 9);
    double lb = static_cast<double>(rng.uniform_int(-5, 2));
    double ub = lb + static_cast<double>(rng.uniform_int(0, 8));
    if (shape == 8) {
      ub = kInfinity;
    } else if (shape == 9) {
      lb = -kInfinity;
      ub = kInfinity;
    }
    model.add_variable(lb, ub, static_cast<double>(rng.uniform_int(-4, 4)));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense_draw = rng.uniform_int(0, 2);
    const auto sense = sense_draw == 0   ? RowSense::LessEqual
                       : sense_draw == 1 ? RowSense::GreaterEqual
                                         : RowSense::Equal;
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.uniform_int(-10, 10)));
  }
  return model;
}

// --- differential: dense vs revised on random bounded LPs -------------------

class RevisedVsDense : public ::testing::TestWithParam<int> {};

TEST_P(RevisedVsDense, SameStatusAndObjective) {
  const LpModel model =
      make_random_bounded_lp(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 13);
  const LpSolution dense = oracles::solve_lp_dense(model);
  const LpSolution revised = solve_lp(model);
  ASSERT_NE(dense.status, LpStatus::IterationLimit);
  ASSERT_NE(revised.status, LpStatus::IterationLimit);
  EXPECT_EQ(revised.status, dense.status) << "dense=" << to_string(dense.status)
                                          << " revised=" << to_string(revised.status);
  if (dense.status == LpStatus::Optimal && revised.status == LpStatus::Optimal) {
    EXPECT_NEAR(revised.objective, dense.objective, 1e-6);
    EXPECT_TRUE(model.is_feasible(revised.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedVsDense, ::testing::Range(0, 400));

// Larger instances where the dense tableau's O(rows x cols) sweeps start to
// hurt; still cross-checked exactly.
class RevisedVsDenseLarge : public ::testing::TestWithParam<int> {};

TEST_P(RevisedVsDenseLarge, SameStatusAndObjective) {
  const LpModel model = make_random_bounded_lp(
      static_cast<std::uint64_t>(GetParam()) * 40503 + 271, /*max_vars=*/20,
      /*max_rows=*/16);
  const LpSolution dense = oracles::solve_lp_dense(model);
  const LpSolution revised = solve_lp(model);
  ASSERT_NE(dense.status, LpStatus::IterationLimit);
  ASSERT_NE(revised.status, LpStatus::IterationLimit);
  EXPECT_EQ(revised.status, dense.status);
  if (dense.status == LpStatus::Optimal && revised.status == LpStatus::Optimal) {
    EXPECT_NEAR(revised.objective, dense.objective, 1e-6);
    EXPECT_TRUE(model.is_feasible(revised.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedVsDenseLarge, ::testing::Range(0, 120));

// --- warm start: dual re-solve after a bound tightening ---------------------

class WarmStartAfterTightening : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartAfterTightening, MatchesColdSolve) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 9176 + 5;
  LpModel model = make_random_bounded_lp(seed);
  RevisedSimplex solver(model);
  const LpSolution first = solver.solve();
  if (first.status != LpStatus::Optimal) {
    return;  // warm starts only make sense off an optimal basis
  }
  const Basis basis = solver.basis();
  ASSERT_FALSE(basis.empty());

  // Tighten one variable's bounds the way branch and bound does: floor /
  // ceil around its LP value.
  Rng rng{seed + 1};
  const Col c = static_cast<Col>(rng.uniform_int(0, model.variable_count() - 1));
  const double v = first.values[static_cast<std::size_t>(c)];
  const bool branch_down = rng.uniform_int(0, 1) == 0;
  double lo = model.lower_bound(c);
  double hi = model.upper_bound(c);
  if (branch_down) {
    hi = std::min(hi, std::floor(v));
  } else {
    lo = std::max(lo, std::floor(v) + 1.0);
  }
  if (lo > hi) {
    return;  // trivially infeasible branch; nothing to re-solve
  }

  solver.set_bounds(c, lo, hi);
  const LpSolution warm = solver.solve_from(basis);

  model.set_bounds(c, lo, hi);
  const LpSolution cold = solve_lp(model);
  const LpSolution cold_dense = oracles::solve_lp_dense(model);

  ASSERT_NE(warm.status, LpStatus::IterationLimit);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.status, cold_dense.status);
  if (warm.status == LpStatus::Optimal) {
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
    EXPECT_NEAR(warm.objective, cold_dense.objective, 1e-6);
    EXPECT_TRUE(model.is_feasible(warm.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartAfterTightening, ::testing::Range(0, 300));

// A chain of tightenings re-using each optimal basis in turn — the exact
// access pattern of a depth-first branch-and-bound dive.
TEST(WarmStart, ChainedTighteningsMatchColdSolves) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    LpModel model = make_random_bounded_lp(seed * 7919 + 3, 10, 8);
    RevisedSimplex solver(model);
    LpSolution current = solver.solve();
    Rng rng{seed};
    for (int depth = 0; depth < 6 && current.status == LpStatus::Optimal; ++depth) {
      const Basis basis = solver.basis();
      const Col c =
          static_cast<Col>(rng.uniform_int(0, model.variable_count() - 1));
      const double v = current.values[static_cast<std::size_t>(c)];
      double lo = model.lower_bound(c);
      double hi = model.upper_bound(c);
      if (rng.uniform_int(0, 1) == 0) {
        hi = std::min(hi, std::floor(v));
      } else {
        lo = std::max(lo, std::ceil(v - 1e-9));
      }
      if (lo > hi) {
        break;
      }
      solver.set_bounds(c, lo, hi);
      model.set_bounds(c, lo, hi);
      current = solver.solve_from(basis);
      const LpSolution cold = oracles::solve_lp_dense(model);
      ASSERT_NE(current.status, LpStatus::IterationLimit) << "seed " << seed;
      ASSERT_EQ(current.status, cold.status) << "seed " << seed << " depth " << depth;
      if (current.status == LpStatus::Optimal) {
        EXPECT_NEAR(current.objective, cold.objective, 1e-6)
            << "seed " << seed << " depth " << depth;
      }
    }
  }
}

// --- targeted shapes --------------------------------------------------------

TEST(RevisedSimplex, EmptyModelIsOptimalAtZero) {
  LpModel model;
  const LpSolution sol = solve_lp(model);
  EXPECT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.objective, 0.0);
}

TEST(RevisedSimplex, UnboundedBelowIsDetected) {
  LpModel model;
  model.add_variable(-kInfinity, kInfinity, 1.0);
  const LpSolution sol = solve_lp(model);
  EXPECT_EQ(sol.status, LpStatus::Unbounded);
}

TEST(RevisedSimplex, FixedVariablesAndEqualities) {
  LpModel model;
  const Col x = model.add_variable(2.0, 2.0, 3.0);   // fixed
  const Col y = model.add_variable(0.0, 10.0, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::Equal, 5.0);
  const LpSolution sol = solve_lp(model);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 3.0, 1e-9);
  EXPECT_NEAR(sol.objective, 9.0, 1e-9);
}

TEST(RevisedSimplex, InfeasibleEqualitiesAreDetected) {
  LpModel model;
  const Col x = model.add_variable(0.0, 1.0, 1.0);
  model.add_constraint({{x, 1.0}}, RowSense::Equal, 5.0);
  const LpSolution sol = solve_lp(model);
  EXPECT_EQ(sol.status, LpStatus::Infeasible);
}

TEST(RevisedSimplex, WarmStatsCountBasisReuse) {
  LpModel model;
  const Col x = model.add_variable(0.0, 10.0, -1.0);
  const Col y = model.add_variable(0.0, 10.0, -2.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::LessEqual, 8.0);
  RevisedSimplex solver(model);
  const LpSolution cold = solver.solve();
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_EQ(solver.last_stats().cold_solves, 1);
  const Basis basis = solver.basis();
  solver.set_bounds(y, 0.0, 3.0);
  const LpSolution warm = solver.solve_from(basis);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_EQ(solver.last_stats().warm_solves, 1);
  EXPECT_EQ(solver.total_stats().warm_solves, 1);
  EXPECT_EQ(solver.total_stats().cold_solves, 1);
  EXPECT_NEAR(warm.objective, -11.0, 1e-9);  // y=3, x=5
}

TEST(RevisedSimplex, WarmStartFromForeignBasisFallsBackSafely) {
  LpModel model;
  model.add_variable(0.0, 4.0, -1.0);
  model.add_variable(0.0, 4.0, -1.0);
  model.add_constraint({{0, 1.0}, {1, 2.0}}, RowSense::LessEqual, 6.0);
  RevisedSimplex solver(model);
  Basis bogus;  // malformed on purpose: wrong arity
  bogus.basic = {0, 1, 2};
  bogus.status = {BasisStatus::Basic};
  const LpSolution sol = solver.solve_from(bogus);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_GE(solver.last_stats().warm_degraded, 1);
}

}  // namespace
}  // namespace cohls::lp
