#include "milp/dive.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cohls::milp {

namespace {

/// The integer column whose value is closest to integral without being
/// integral — fixing it perturbs the relaxation least, which is what keeps
/// dive re-solves down to a handful of dual pivots each.
int least_fractional(const MilpModel& model, const std::vector<double>& x,
                     double tolerance) {
  int best = -1;
  double best_frac = 1.0;
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    if (!model.is_integer(c)) {
      continue;
    }
    const double v = x[static_cast<std::size_t>(c)];
    const double frac = std::abs(v - std::round(v));
    if (frac > tolerance && frac < best_frac) {
      best_frac = frac;
      best = c;
    }
  }
  return best;
}

}  // namespace

DiveResult dive_for_incumbent(const MilpModel& model, const DiveHooks& hooks,
                              const lp::LpSolution& root_relax,
                              double integrality_tolerance,
                              double feasibility_tolerance, long max_lp_solves) {
  COHLS_EXPECT(hooks.resolve && hooks.set_bounds && hooks.lower != nullptr &&
                   hooks.upper != nullptr,
               "dive hooks must be fully wired");
  DiveResult out;
  if (root_relax.status != lp::LpStatus::Optimal) {
    return out;
  }
  lp::LpSolution relax = root_relax;
  // Fixes `col` to `value` and re-solves; false when the re-solve budget is
  // spent or the owner's stop check fires first.
  auto fix_and_resolve = [&](lp::Col col, double value) {
    if (out.lp_solves >= max_lp_solves || (hooks.stop && hooks.stop())) {
      return false;
    }
    hooks.set_bounds(col, value, value);
    ++out.lp_solves;
    relax = hooks.resolve();
    return true;
  };
  while (true) {
    const int col = least_fractional(model, relax.values, integrality_tolerance);
    if (col < 0) {
      // Integral: snap and validate before claiming an incumbent.
      std::vector<double> snapped = relax.values;
      for (lp::Col c = 0; c < model.variable_count(); ++c) {
        if (model.is_integer(c)) {
          snapped[static_cast<std::size_t>(c)] =
              std::round(snapped[static_cast<std::size_t>(c)]);
        }
      }
      if (!model.is_feasible(snapped, feasibility_tolerance)) {
        return out;
      }
      out.objective = model.lp().objective_value(snapped);
      out.values = std::move(snapped);
      out.found = true;
      return out;
    }

    const std::size_t cs = static_cast<std::size_t>(col);
    const double value = relax.values[cs];
    const double lo = (*hooks.lower)[cs];
    const double hi = (*hooks.upper)[cs];
    const double nearest =
        std::clamp(std::round(value), std::ceil(lo), std::floor(hi));
    if (!fix_and_resolve(col, nearest)) {
      return out;
    }
    if (relax.status == lp::LpStatus::Optimal) {
      continue;
    }
    // One backtrack per column: flip to the other neighboring integer, if it
    // exists inside the box. A second failure aborts the dive — the branch
    // search proper will sort the region out.
    const double other = nearest > value ? nearest - 1.0 : nearest + 1.0;
    if (other < lo - 1e-9 || other > hi + 1e-9 || !fix_and_resolve(col, other) ||
        relax.status != lp::LpStatus::Optimal) {
      return out;
    }
  }
}

}  // namespace cohls::milp
