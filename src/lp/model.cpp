#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

namespace cohls::lp {

Col LpModel::add_variable(double lower, double upper, double objective) {
  COHLS_EXPECT(lower <= upper, "variable lower bound exceeds upper bound");
  COHLS_EXPECT(!std::isnan(lower) && !std::isnan(upper) && !std::isnan(objective),
               "variable data must not be NaN");
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  return variable_count() - 1;
}

Row LpModel::add_constraint(std::vector<Term> terms, RowSense sense, double rhs) {
  COHLS_EXPECT(!std::isnan(rhs), "constraint rhs must not be NaN");
  // Merge duplicate columns in place so solvers can assume one coefficient
  // per column.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.first < b.first; });
  std::size_t kept = 0;
  for (const Term& t : terms) {
    COHLS_EXPECT(t.first >= 0 && t.first < variable_count(),
                 "constraint references an unknown column");
    COHLS_EXPECT(!std::isnan(t.second), "constraint coefficient must not be NaN");
    if (kept > 0 && terms[kept - 1].first == t.first) {
      terms[kept - 1].second += t.second;
    } else {
      terms[kept++] = t;
    }
  }
  terms.resize(kept);
  rows_.push_back(std::move(terms));
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return constraint_count() - 1;
}

void LpModel::set_bounds(Col c, double lower, double upper) {
  COHLS_EXPECT(lower <= upper, "variable lower bound exceeds upper bound");
  const std::size_t i = check_col(c);
  lower_[i] = lower;
  upper_[i] = upper;
}

double LpModel::objective_value(const std::vector<double>& x) const {
  COHLS_EXPECT(x.size() == lower_.size(), "point arity must match variable count");
  double value = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    value += objective_[i] * x[i];
  }
  return value;
}

bool LpModel::is_feasible(const std::vector<double>& x, double tolerance) const {
  COHLS_EXPECT(x.size() == lower_.size(), "point arity must match variable count");
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i]) || x[i] < lower_[i] - tolerance ||
        x[i] > upper_[i] + tolerance) {
      return false;
    }
  }
  for (Row r = 0; r < constraint_count(); ++r) {
    double lhs = 0.0;
    for (const auto& [col, coef] : rows_[static_cast<std::size_t>(r)]) {
      lhs += coef * x[static_cast<std::size_t>(col)];
    }
    const double rhs = rhs_[static_cast<std::size_t>(r)];
    switch (senses_[static_cast<std::size_t>(r)]) {
      case RowSense::LessEqual:
        if (lhs > rhs + tolerance) return false;
        break;
      case RowSense::GreaterEqual:
        if (lhs < rhs - tolerance) return false;
        break;
      case RowSense::Equal:
        if (std::abs(lhs - rhs) > tolerance) return false;
        break;
    }
  }
  return true;
}

}  // namespace cohls::lp
