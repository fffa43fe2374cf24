// Linear-programming model container. The per-layer synthesis ILP of the
// paper (constraints (1)-(21)) is built on this; the MILP layer adds
// integrality marks on top.
#pragma once

#include <limits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace cohls::lp {

/// Column index into an LpModel.
using Col = int;
/// Row index into an LpModel.
using Row = int;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class RowSense {
  LessEqual,     ///< a·x <= rhs
  GreaterEqual,  ///< a·x >= rhs
  Equal,         ///< a·x == rhs
};

/// One term of a linear expression: (column, coefficient).
using Term = std::pair<Col, double>;

/// A minimization LP: min c·x subject to row constraints and variable
/// bounds. Rows and columns are append-only; the model is a plain value
/// type that solvers read.
class LpModel {
 public:
  /// Adds a variable with bounds [lower, upper] (either may be infinite)
  /// and the given objective coefficient; returns its column index.
  Col add_variable(double lower, double upper, double objective);

  /// Adds the constraint `terms · x  sense  rhs`; returns its row index.
  /// The row is stored in ascending column order, duplicate columns
  /// summed.
  Row add_constraint(std::vector<Term> terms, RowSense sense, double rhs);

  [[nodiscard]] int variable_count() const { return static_cast<int>(lower_.size()); }
  [[nodiscard]] int constraint_count() const { return static_cast<int>(rhs_.size()); }

  [[nodiscard]] double lower_bound(Col c) const { return lower_[check_col(c)]; }
  [[nodiscard]] double upper_bound(Col c) const { return upper_[check_col(c)]; }
  [[nodiscard]] double objective_coefficient(Col c) const { return objective_[check_col(c)]; }

  /// Tightens the bounds of an existing variable (used by branch & bound).
  void set_bounds(Col c, double lower, double upper);

  [[nodiscard]] const std::vector<Term>& row_terms(Row r) const { return rows_[check_row(r)]; }
  [[nodiscard]] RowSense row_sense(Row r) const { return senses_[check_row(r)]; }
  [[nodiscard]] double row_rhs(Row r) const { return rhs_[check_row(r)]; }

  /// Evaluates the objective at a point (size must equal variable_count()).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// True when `x` is finite and satisfies every bound and row within
  /// tolerance.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tolerance = 1e-6) const;

 private:
  [[nodiscard]] std::size_t check_col(Col c) const {
    COHLS_EXPECT(c >= 0 && c < variable_count(), "column index out of range");
    return static_cast<std::size_t>(c);
  }
  [[nodiscard]] std::size_t check_row(Row r) const {
    COHLS_EXPECT(r >= 0 && r < constraint_count(), "row index out of range");
    return static_cast<std::size_t>(r);
  }

  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<std::vector<Term>> rows_;
  std::vector<RowSense> senses_;
  std::vector<double> rhs_;
};

}  // namespace cohls::lp
