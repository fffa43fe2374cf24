#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "util/check.hpp"

namespace cohls::milp {
namespace {

constexpr double kTol = 1e-6;

TEST(Milp, PureLpPassesThrough) {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Continuous, 0, 4, -1.0);
  m.add_constraint({{x, 1.0}}, lp::RowSense::LessEqual, 2.5);
  const auto sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2.5, kTol);
}

TEST(Milp, IntegerRoundingIsNotTruncation) {
  // min -x, x integer, x <= 2.5 -> x = 2 (not 2.5, not 3).
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, -1.0);
  m.add_constraint({{x, 1.0}}, lp::RowSense::LessEqual, 2.5);
  const auto sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.values[0], 2.0, kTol);
}

TEST(Milp, SmallKnapsack) {
  // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binaries.
  // Best: a + c = 17 (weight 5); b + c = 20 (weight 6) -> 20.
  MilpModel m;
  const auto a = m.add_binary(-10.0);
  const auto b = m.add_binary(-13.0);
  const auto c = m.add_binary(-7.0);
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, lp::RowSense::LessEqual, 6.0);
  const auto sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -20.0, kTol);
  EXPECT_NEAR(sol.values[b], 1.0, kTol);
  EXPECT_NEAR(sol.values[c], 1.0, kTol);
}

TEST(Milp, AssignmentProblem) {
  // 3x3 assignment, cost matrix; optimum = 5 (1+3+1? verify below).
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  // Optimal picks (0,1)=1, (1,0)=2, (2,2)=2 -> 5.
  MilpModel m;
  lp::Col x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      x[i][j] = m.add_binary(cost[i][j]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<lp::Term> row, col;
    for (int j = 0; j < 3; ++j) {
      row.emplace_back(x[i][j], 1.0);
      col.emplace_back(x[j][i], 1.0);
    }
    m.add_constraint(std::move(row), lp::RowSense::Equal, 1.0);
    m.add_constraint(std::move(col), lp::RowSense::Equal, 1.0);
  }
  const auto sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, kTol);
}

TEST(Milp, InfeasibleIntegerSystem) {
  // 2x = 1 with x integer.
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, 0.0);
  m.add_constraint({{x, 2.0}}, lp::RowSense::Equal, 1.0);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

TEST(Milp, LpFeasibleButIntegerInfeasible) {
  // x + y = 0.5 with x, y binary: LP relaxation feasible, MILP not.
  MilpModel m;
  const auto x = m.add_binary(0.0);
  const auto y = m.add_binary(0.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::RowSense::Equal, 0.5);
  EXPECT_EQ(solve_milp(m).status, MilpStatus::Infeasible);
}

TEST(Milp, WarmStartAccepted) {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 100, 1.0);
  m.add_constraint({{x, 1.0}}, lp::RowSense::GreaterEqual, 40.0);
  MilpOptions opts;
  opts.warm_start = std::vector<double>{50.0};
  const auto sol = solve_milp(m, opts);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 40.0, kTol);
}

TEST(Milp, InfeasibleWarmStartIgnored) {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 100, 1.0);
  m.add_constraint({{x, 1.0}}, lp::RowSense::GreaterEqual, 40.0);
  MilpOptions opts;
  opts.warm_start = std::vector<double>{10.0};  // violates the row
  const auto sol = solve_milp(m, opts);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 40.0, kTol);
}

// min -x - y, x + y <= 7.5, integer x, y in [0, 10]: the optimum is -7.
MilpModel two_integer_model() {
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 0, 10, -1.0);
  const auto y = m.add_variable(VarKind::Integer, 0, 10, -1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::RowSense::LessEqual, 7.5);
  return m;
}

TEST(Milp, NonFiniteWarmStartIgnored) {
  const MilpModel m = two_integer_model();
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> starts{{nan, nan}, {nan, 3.0}, {inf, -inf}, {2.0, inf}};
  for (const std::vector<double>& start : starts) {
    EXPECT_FALSE(m.is_feasible(start));
    MilpOptions opts;
    opts.warm_start = start;
    const auto sol = solve_milp(m, opts);
    ASSERT_EQ(sol.status, MilpStatus::Optimal);
    EXPECT_NEAR(sol.objective, -7.0, kTol);
  }
  const auto cold = solve_milp(m);
  ASSERT_EQ(cold.status, MilpStatus::Optimal);
  EXPECT_NEAR(cold.objective, -7.0, kTol);
}

TEST(Milp, NodeLimitReportsFeasibleOrNoSolution) {
  // A 12-binary knapsack-style model; one node is not enough to prove
  // optimality but the warm start guarantees an incumbent.
  MilpModel m;
  std::vector<lp::Term> row;
  std::vector<double> start;
  for (int i = 0; i < 12; ++i) {
    const auto b = m.add_binary(-1.0);
    row.emplace_back(b, 2.0);
    start.push_back(0.0);
  }
  // Identical items of weight 2 against an odd capacity: the root LP
  // relaxation is forced fractional (3.5 items), so one node cannot prove
  // optimality.
  m.add_constraint(std::move(row), lp::RowSense::LessEqual, 7.0);
  MilpOptions opts;
  opts.max_nodes = 1;
  opts.warm_start = start;
  const auto sol = solve_milp(m, opts);
  EXPECT_EQ(sol.status, MilpStatus::Feasible);
}

/// Identical even weights against an odd capacity keep every relaxation
/// fractional, so the tree is deep.
MilpModel make_branchy_knapsack(int items, double capacity) {
  MilpModel model;
  std::vector<lp::Term> row;
  for (int i = 0; i < items; ++i) {
    row.emplace_back(model.add_binary(-1.0 - 0.01 * i), 2.0);
  }
  model.add_constraint(std::move(row), lp::RowSense::LessEqual, capacity);
  return model;
}

TEST(Milp, TruncatedSearchExpandsExactlyTheNodeBudget) {
  MilpOptions opts;
  opts.time_limit_seconds = 0.0;  // only the node budget ends this search
  opts.max_nodes = 40;
  opts.enable_rounding_heuristic = false;  // keep the tree from closing early
  const auto sol = solve_milp(make_branchy_knapsack(24, 21.0), opts);
  EXPECT_EQ(sol.milp_nodes, 40);
  EXPECT_NE(sol.status, MilpStatus::Optimal);
}

TEST(Milp, PivotBudgetStopsTheSearchWithinOneLpSolve) {
  const MilpModel model = make_branchy_knapsack(24, 21.0);
  // The root relaxation alone: the cold solve, the largest single LP solve
  // of this search (every later one re-solves warm after one bound change).
  MilpOptions root_only;
  root_only.max_nodes = 1;
  root_only.dive = false;
  const long root_pivots = solve_milp(model, root_only).lp_pivots;
  ASSERT_GT(root_pivots, 0);

  MilpOptions opts;
  opts.max_nodes = 0;  // unlimited: only the pivot budget ends this search
  opts.max_pivots = 3 * root_pivots;
  opts.enable_rounding_heuristic = false;  // keep the tree from closing early
  const auto sol = solve_milp(model, opts);
  EXPECT_TRUE(sol.status == MilpStatus::Feasible || sol.status == MilpStatus::NoSolution)
      << to_string(sol.status);
  EXPECT_GE(sol.lp_pivots, opts.max_pivots);
  EXPECT_LE(sol.lp_pivots, opts.max_pivots + root_pivots);

  // A work budget stops at the same point on every run.
  const auto again = solve_milp(model, opts);
  EXPECT_EQ(again.status, sol.status);
  EXPECT_EQ(again.milp_nodes, sol.milp_nodes);
  EXPECT_EQ(again.lp_pivots, sol.lp_pivots);
  EXPECT_EQ(again.values, sol.values);
}

TEST(Milp, ChildNodesReSolveWarmFromTheParentBasis) {
  MilpOptions opts;
  opts.time_limit_seconds = 0.0;
  const auto sol = solve_milp(make_branchy_knapsack(16, 13.0), opts);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_GT(sol.milp_nodes, 1);
  EXPECT_GT(sol.lp_warm_solves, 0);
}

TEST(Milp, MoreThanOneThreadIsRejected) {
  MilpOptions opts;
  opts.threads = 4;
  EXPECT_THROW((void)solve_milp(make_branchy_knapsack(4, 3.0), opts), PreconditionError);
}

TEST(Milp, BigMDisjunctionPicksASide) {
  // Either x >= 10 or y >= 10 via indicator q: minimize x + y.
  constexpr double kM = 1000.0;
  MilpModel m;
  const auto x = m.add_variable(VarKind::Continuous, 0, kM, 1.0);
  const auto y = m.add_variable(VarKind::Continuous, 0, kM, 1.0);
  const auto q = m.add_binary(0.0);
  // x >= 10 - M q  and  y >= 10 - M (1 - q)
  m.add_constraint({{x, 1.0}, {q, kM}}, lp::RowSense::GreaterEqual, 10.0);
  m.add_constraint({{y, 1.0}, {q, -kM}}, lp::RowSense::GreaterEqual, 10.0 - kM);
  const auto sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 10.0, kTol);
}

TEST(Milp, MixedIntegerContinuous) {
  // min y s.t. y >= 1.5 x, x integer >= 2 -> x = 2, y = 3.
  MilpModel m;
  const auto x = m.add_variable(VarKind::Integer, 2, 10, 0.0);
  const auto y = m.add_variable(VarKind::Continuous, 0, lp::kInfinity, 1.0);
  m.add_constraint({{y, 1.0}, {x, -1.5}}, lp::RowSense::GreaterEqual, 0.0);
  const auto sol = solve_milp(m);
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, kTol);
  EXPECT_NEAR(sol.values[x], 2.0, kTol);
}

TEST(Milp, StatusStrings) {
  EXPECT_EQ(to_string(MilpStatus::Optimal), "Optimal");
  EXPECT_EQ(to_string(MilpStatus::Feasible), "Feasible");
  EXPECT_EQ(to_string(MilpStatus::Infeasible), "Infeasible");
  EXPECT_EQ(to_string(MilpStatus::NoSolution), "NoSolution");
}

}  // namespace
}  // namespace cohls::milp
