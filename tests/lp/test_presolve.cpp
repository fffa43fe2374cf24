#include "lp/presolve.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "support/lp_oracles.hpp"
#include "util/rng.hpp"

namespace cohls::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Presolve, RemovesFixedColumns) {
  LpModel m;
  const Col fixed = m.add_variable(3.0, 3.0, 1.0);
  const Col free = m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{fixed, 2.0}, {free, 1.0}}, RowSense::LessEqual, 10.0);
  const Presolved pre = presolve(m);
  ASSERT_FALSE(pre.infeasible());
  EXPECT_EQ(pre.removed_columns(), 1);
  EXPECT_EQ(pre.model().variable_count(), 1);
  // The substituted row becomes free + 6 <= 10, a singleton, which presolve
  // absorbs into the bound free <= 4 and drops.
  EXPECT_EQ(pre.model().constraint_count(), 0);
  EXPECT_DOUBLE_EQ(pre.model().upper_bound(0), 4.0);
}

TEST(Presolve, FixedColumnsOfOneRoundSubtractInAscendingColumnOrder) {
  // Three columns fixed in the same round share one row. The reduced rhs
  // must be the sequential subtraction in ascending column order, bit for
  // bit; these values round differently in any other order.
  LpModel m;
  const Col a = m.add_variable(0.1, 0.1, 0.0);
  const Col b = m.add_variable(0.2, 0.2, 0.0);
  const Col c = m.add_variable(3.3, 3.3, 0.0);
  const Col x = m.add_variable(0.0, 10.0, 1.0);
  const Col y = m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{y, 1.0}, {c, 0.3}, {x, 1.0}, {a, 0.1}, {b, 0.1}}, RowSense::LessEqual,
                   1.0);
  double ascending = 1.0;
  ascending -= 0.1 * 0.1;
  ascending -= 0.1 * 0.2;
  ascending -= 0.3 * 3.3;
  double descending = 1.0;
  descending -= 0.3 * 3.3;
  descending -= 0.1 * 0.2;
  descending -= 0.1 * 0.1;
  ASSERT_NE(ascending, descending);
  ASSERT_NE(ascending, 1.0 - (0.1 * 0.1 + 0.1 * 0.2 + 0.3 * 3.3));

  const Presolved pre = presolve(m);
  ASSERT_FALSE(pre.infeasible());
  EXPECT_EQ(pre.removed_columns(), 3);
  ASSERT_EQ(pre.model().constraint_count(), 1);
  const std::vector<Term> live{{0, 1.0}, {1, 1.0}};
  EXPECT_EQ(pre.model().row_terms(0), live);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pre.model().row_rhs(0)),
            std::bit_cast<std::uint64_t>(ascending));
  EXPECT_EQ(pre.reduced_column(x), 0);
  EXPECT_EQ(pre.reduced_column(y), 1);
}

TEST(Presolve, DropsEmptyConsistentRows) {
  LpModel m;
  (void)m.add_variable(0.0, 1.0, 0.0);
  m.add_constraint({}, RowSense::LessEqual, 5.0);
  const Presolved pre = presolve(m);
  ASSERT_FALSE(pre.infeasible());
  EXPECT_EQ(pre.model().constraint_count(), 0);
  EXPECT_EQ(pre.removed_rows(), 1);
}

TEST(Presolve, DetectsEmptyInfeasibleRow) {
  LpModel m;
  (void)m.add_variable(0.0, 1.0, 0.0);
  m.add_constraint({}, RowSense::GreaterEqual, 5.0);
  EXPECT_TRUE(presolve(m).infeasible());
}

TEST(Presolve, SingletonRowTightensBounds) {
  LpModel m;
  const Col x = m.add_variable(0.0, 100.0, -1.0);
  m.add_constraint({{x, 2.0}}, RowSense::LessEqual, 10.0);  // x <= 5
  const Presolved pre = presolve(m);
  ASSERT_FALSE(pre.infeasible());
  EXPECT_EQ(pre.model().constraint_count(), 0);
  EXPECT_DOUBLE_EQ(pre.model().upper_bound(0), 5.0);
}

TEST(Presolve, NegativeCoefficientFlipsTheSense) {
  LpModel m;
  const Col x = m.add_variable(-100.0, 100.0, 1.0);
  m.add_constraint({{x, -1.0}}, RowSense::LessEqual, 4.0);  // -x <= 4 -> x >= -4
  const Presolved pre = presolve(m);
  ASSERT_FALSE(pre.infeasible());
  EXPECT_DOUBLE_EQ(pre.model().lower_bound(0), -4.0);
}

TEST(Presolve, SingletonEqualityFixesAndCascades) {
  // x == 4 fixes x; substituting makes the second row a singleton on y,
  // fixing y too; everything presolves away.
  LpModel m;
  const Col x = m.add_variable(0.0, 10.0, 1.0);
  const Col y = m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{x, 1.0}}, RowSense::Equal, 4.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::Equal, 9.0);
  const Presolved pre = presolve(m);
  ASSERT_FALSE(pre.infeasible());
  EXPECT_EQ(pre.model().variable_count(), 0);
  EXPECT_EQ(pre.model().constraint_count(), 0);
  const auto full = pre.restore({});
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(x)], 4.0);
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(y)], 5.0);
}

TEST(Presolve, DetectsBoundClashFromSingletons) {
  LpModel m;
  const Col x = m.add_variable(0.0, 10.0, 0.0);
  m.add_constraint({{x, 1.0}}, RowSense::GreaterEqual, 7.0);
  m.add_constraint({{x, 1.0}}, RowSense::LessEqual, 3.0);
  EXPECT_TRUE(presolve(m).infeasible());
}

TEST(SolveWithPresolve, MatchesDirectSolveOnFixedHeavyModel) {
  LpModel m;
  const Col a = m.add_variable(2.0, 2.0, 3.0);   // fixed
  const Col b = m.add_variable(0.0, 10.0, -1.0);
  const Col c = m.add_variable(1.0, 1.0, 1.0);   // fixed
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowSense::LessEqual, 9.0);
  const LpSolution direct = solve_lp(m);
  const LpSolution pre = oracles::solve_lp_with_presolve(m);
  ASSERT_EQ(direct.status, LpStatus::Optimal);
  ASSERT_EQ(pre.status, LpStatus::Optimal);
  EXPECT_NEAR(direct.objective, pre.objective, kTol);
  EXPECT_NEAR(pre.values[a], 2.0, kTol);
  EXPECT_NEAR(pre.values[b], 6.0, kTol);
  EXPECT_NEAR(pre.values[c], 1.0, kTol);
}

// Property: presolve + solve agrees with the direct solve on random models.
class PresolveCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(PresolveCrossValidation, AgreesWithDirectSolve) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 48611 + 5};
  LpModel m;
  const int n = static_cast<int>(rng.uniform_int(1, 6));
  for (int j = 0; j < n; ++j) {
    const double lb = static_cast<double>(rng.uniform_int(-4, 2));
    // Bias towards fixed columns so presolve has work to do.
    const double ub = rng.bernoulli(0.3) ? lb : lb + static_cast<double>(rng.uniform_int(0, 6));
    m.add_variable(lb, ub, static_cast<double>(rng.uniform_int(-4, 4)));
  }
  const int rows = static_cast<int>(rng.uniform_int(0, 5));
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    // Bias towards short rows (empty / singleton reductions).
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.4)) {
        terms.emplace_back(j, static_cast<double>(rng.uniform_int(-3, 3)));
      }
    }
    const auto sense_draw = rng.uniform_int(0, 2);
    m.add_constraint(std::move(terms),
                     sense_draw == 0   ? RowSense::LessEqual
                     : sense_draw == 1 ? RowSense::GreaterEqual
                                       : RowSense::Equal,
                     static_cast<double>(rng.uniform_int(-8, 8)));
  }
  const LpSolution direct = solve_lp(m);
  const LpSolution pre = oracles::solve_lp_with_presolve(m);
  ASSERT_NE(direct.status, LpStatus::IterationLimit);
  EXPECT_EQ(direct.status, pre.status);
  if (direct.status == LpStatus::Optimal) {
    EXPECT_NEAR(direct.objective, pre.objective, 1e-5);
    EXPECT_TRUE(m.is_feasible(pre.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveCrossValidation, ::testing::Range(0, 80));

}  // namespace
}  // namespace cohls::lp
