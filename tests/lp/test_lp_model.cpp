#include "lp/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cohls::lp {
namespace {

TEST(LpModel, AddVariableReturnsSequentialColumns) {
  LpModel m;
  EXPECT_EQ(m.add_variable(0, 1, 2.0), 0);
  EXPECT_EQ(m.add_variable(0, 1, 3.0), 1);
  EXPECT_EQ(m.variable_count(), 2);
  EXPECT_DOUBLE_EQ(m.objective_coefficient(0), 2.0);
}

TEST(LpModel, BoundsStored) {
  LpModel m;
  const Col c = m.add_variable(-2.5, 7.0, 0.0);
  EXPECT_DOUBLE_EQ(m.lower_bound(c), -2.5);
  EXPECT_DOUBLE_EQ(m.upper_bound(c), 7.0);
}

TEST(LpModel, RejectsInvertedBounds) {
  LpModel m;
  EXPECT_THROW(m.add_variable(1.0, 0.0, 0.0), PreconditionError);
}

TEST(LpModel, SetBoundsTightens) {
  LpModel m;
  const Col c = m.add_variable(0.0, 10.0, 0.0);
  m.set_bounds(c, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(m.lower_bound(c), 2.0);
  EXPECT_DOUBLE_EQ(m.upper_bound(c), 3.0);
}

TEST(LpModel, ConstraintMergesDuplicateColumns) {
  LpModel m;
  const Col x = m.add_variable(0, 10, 1.0);
  const Row r = m.add_constraint({{x, 1.0}, {x, 2.0}}, RowSense::LessEqual, 6.0);
  ASSERT_EQ(m.row_terms(r).size(), 1u);
  EXPECT_DOUBLE_EQ(m.row_terms(r)[0].second, 3.0);
}

TEST(LpModel, ConstraintIsStoredInAscendingColumnOrder) {
  LpModel m;
  const Col x = m.add_variable(0, 10, 1.0);
  const Col y = m.add_variable(0, 10, 1.0);
  const Col z = m.add_variable(0, 10, 1.0);
  const Row r =
      m.add_constraint({{z, 4.0}, {x, 1.0}, {y, 2.0}, {x, 0.5}}, RowSense::LessEqual, 6.0);
  const std::vector<Term> expected{{x, 1.5}, {y, 2.0}, {z, 4.0}};
  EXPECT_EQ(m.row_terms(r), expected);
}

TEST(LpModel, ConstraintRejectsNaNCoefficient) {
  LpModel m;
  const Col x = m.add_variable(0, 10, 1.0);
  EXPECT_THROW(m.add_constraint({{x, std::nan("")}}, RowSense::LessEqual, 1.0),
               PreconditionError);
  EXPECT_EQ(m.constraint_count(), 0);
}

TEST(LpModel, ConstraintRejectsUnknownColumn) {
  LpModel m;
  EXPECT_THROW(m.add_constraint({{0, 1.0}}, RowSense::Equal, 0.0), PreconditionError);
}

TEST(LpModel, ObjectiveValue) {
  LpModel m;
  m.add_variable(0, 10, 2.0);
  m.add_variable(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(LpModel, FeasibilityChecksBoundsAndRows) {
  LpModel m;
  const Col x = m.add_variable(0, 5, 0.0);
  const Col y = m.add_variable(0, 5, 0.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::LessEqual, 6.0);
  m.add_constraint({{x, 1.0}}, RowSense::GreaterEqual, 1.0);
  m.add_constraint({{y, 1.0}}, RowSense::Equal, 2.0);
  EXPECT_TRUE(m.is_feasible({2.0, 2.0}));
  EXPECT_FALSE(m.is_feasible({0.0, 2.0}));   // violates >=
  EXPECT_FALSE(m.is_feasible({5.0, 2.0}));   // violates <=
  EXPECT_FALSE(m.is_feasible({2.0, 3.0}));   // violates ==
  EXPECT_FALSE(m.is_feasible({6.0, 0.0}));   // violates upper bound
}

TEST(LpModel, FeasibilityRejectsNonFiniteEntries) {
  // Every comparison with NaN is false, so a NaN entry passes bound and row
  // checks written as "reject when out of range"; it must be rejected.
  LpModel m;
  const Col x = m.add_variable(0, 10, -1.0);
  const Col y = m.add_variable(-kInfinity, kInfinity, 0.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::LessEqual, 7.5);
  EXPECT_TRUE(m.is_feasible({1.0, 2.0}));
  EXPECT_FALSE(m.is_feasible({std::nan(""), 2.0}));
  EXPECT_FALSE(m.is_feasible({1.0, std::nan("")}));
  EXPECT_FALSE(m.is_feasible({1.0, -kInfinity}));
  EXPECT_FALSE(m.is_feasible({kInfinity, 2.0}));
}

TEST(LpModel, FeasibilityRespectsTolerance) {
  LpModel m;
  const Col x = m.add_variable(0, 1, 0.0);
  m.add_constraint({{x, 1.0}}, RowSense::Equal, 0.5);
  EXPECT_TRUE(m.is_feasible({0.5 + 1e-9}));
  EXPECT_FALSE(m.is_feasible({0.6}));
}

}  // namespace
}  // namespace cohls::lp
