#include "milp/model.hpp"

#include <cmath>

namespace cohls::milp {

lp::Col MilpModel::add_variable(VarKind kind, double lower, double upper, double objective) {
  if (kind == VarKind::Binary) {
    COHLS_EXPECT(lower >= 0.0 && upper <= 1.0, "binary bounds must lie within [0, 1]");
  }
  const lp::Col c = lp_.add_variable(lower, upper, objective);
  kinds_.push_back(kind);
  return c;
}

bool MilpModel::is_feasible(const std::vector<double>& x, double tolerance) const {
  if (!lp_.is_feasible(x, tolerance)) {
    return false;
  }
  for (lp::Col c = 0; c < variable_count(); ++c) {
    if (is_integer(c)) {
      const double v = x[static_cast<std::size_t>(c)];
      if (std::abs(v - std::round(v)) > tolerance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace cohls::milp
