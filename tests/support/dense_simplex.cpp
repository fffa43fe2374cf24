// The dense-tableau two-phase primal simplex with native variable bounds:
// an independent implementation the revised simplex (lp/revised_simplex.cpp)
// is differentially tested against. Every solve rebuilds an O(rows x cols)
// tableau, so it suits small models and one-off reference solves only.
#include <algorithm>
#include <cmath>
#include <limits>

#include "support/lp_oracles.hpp"

namespace cohls::oracles {

using lp::Col;
using lp::kInfinity;
using lp::LpModel;
using lp::LpSolution;
using lp::LpStatus;
using lp::Row;
using lp::RowSense;
using lp::SimplexOptions;

namespace {

// The solver works on a standardized copy of the model:
//   min c·y   s.t.  A y = b,   0 <= y_j <= ub_j   (ub_j may be +inf)
// Structural variables are shifted / mirrored / split so every lower bound
// is 0; each row gets a slack; each row gets an artificial for phase 1.
class Standardized {
 public:
  explicit Standardized(const LpModel& model) : model_(model) {
    build_columns();
    build_rows();
  }

  // --- transformed problem data -------------------------------------------
  int num_cols() const { return static_cast<int>(cost_.size()); }
  int num_rows() const { return static_cast<int>(rhs_.size()); }
  int first_artificial() const { return first_artificial_; }

  const std::vector<std::vector<double>>& matrix() const { return matrix_; }
  const std::vector<double>& rhs() const { return rhs_; }
  const std::vector<double>& cost() const { return cost_; }
  const std::vector<double>& upper() const { return upper_; }

  /// Maps a transformed solution vector back to original variable values.
  std::vector<double> recover(const std::vector<double>& y) const {
    std::vector<double> x(static_cast<std::size_t>(model_.variable_count()), 0.0);
    for (Col c = 0; c < model_.variable_count(); ++c) {
      const auto& m = mapping_[static_cast<std::size_t>(c)];
      const double primary = y[static_cast<std::size_t>(m.primary)];
      double value = m.shift + m.sign * primary;
      if (m.negative_part >= 0) {
        value -= y[static_cast<std::size_t>(m.negative_part)];
      }
      x[static_cast<std::size_t>(c)] = value;
    }
    return x;
  }

 private:
  struct Mapping {
    int primary = -1;        // transformed column
    int negative_part = -1;  // second column for free variables
    double shift = 0.0;      // x = shift + sign * y_primary - y_negative
    double sign = 1.0;
  };

  void build_columns() {
    for (Col c = 0; c < model_.variable_count(); ++c) {
      const double lb = model_.lower_bound(c);
      const double ub = model_.upper_bound(c);
      const double obj = model_.objective_coefficient(c);
      Mapping m;
      if (std::isfinite(lb)) {
        // x = lb + y,  y in [0, ub - lb]
        m.primary = add_col(obj, std::isfinite(ub) ? ub - lb : kInfinity);
        m.shift = lb;
        m.sign = 1.0;
      } else if (std::isfinite(ub)) {
        // x = ub - y,  y in [0, inf)
        m.primary = add_col(-obj, kInfinity);
        m.shift = ub;
        m.sign = -1.0;
      } else {
        // free: x = y+ - y-
        m.primary = add_col(obj, kInfinity);
        m.negative_part = add_col(-obj, kInfinity);
        m.sign = 1.0;
      }
      mapping_.push_back(m);
    }
  }

  int add_col(double cost, double ub) {
    cost_.push_back(cost);
    upper_.push_back(ub);
    return num_cols() - 1;
  }

  void build_rows() {
    const int structural_cols = num_cols();
    // Slack columns, one per row.
    std::vector<int> slack(static_cast<std::size_t>(model_.constraint_count()), -1);
    for (Row r = 0; r < model_.constraint_count(); ++r) {
      if (model_.row_sense(r) != RowSense::Equal) {
        slack[static_cast<std::size_t>(r)] = add_col(0.0, kInfinity);
      }
    }
    first_artificial_ = num_cols();
    for (Row r = 0; r < model_.constraint_count(); ++r) {
      add_col(0.0, kInfinity);  // artificial; phase-1 cost applied separately
    }

    matrix_.assign(static_cast<std::size_t>(model_.constraint_count()),
                   std::vector<double>(static_cast<std::size_t>(num_cols()), 0.0));
    rhs_.assign(static_cast<std::size_t>(model_.constraint_count()), 0.0);

    for (Row r = 0; r < model_.constraint_count(); ++r) {
      auto& row = matrix_[static_cast<std::size_t>(r)];
      double b = model_.row_rhs(r);
      for (const auto& [col, coef] : model_.row_terms(r)) {
        const auto& m = mapping_[static_cast<std::size_t>(col)];
        b -= coef * m.shift;
        row[static_cast<std::size_t>(m.primary)] += coef * m.sign;
        if (m.negative_part >= 0) {
          row[static_cast<std::size_t>(m.negative_part)] -= coef;
        }
      }
      const int s = slack[static_cast<std::size_t>(r)];
      if (s >= 0) {
        row[static_cast<std::size_t>(s)] =
            model_.row_sense(r) == RowSense::LessEqual ? 1.0 : -1.0;
      }
      if (b < 0.0) {
        for (int c = 0; c < structural_cols; ++c) {
          row[static_cast<std::size_t>(c)] = -row[static_cast<std::size_t>(c)];
        }
        if (s >= 0) {
          row[static_cast<std::size_t>(s)] = -row[static_cast<std::size_t>(s)];
        }
        b = -b;
      }
      row[static_cast<std::size_t>(first_artificial_ + r)] = 1.0;
      rhs_[static_cast<std::size_t>(r)] = b;
    }
  }

  const LpModel& model_;
  std::vector<Mapping> mapping_;
  std::vector<double> cost_;
  std::vector<double> upper_;
  std::vector<std::vector<double>> matrix_;
  std::vector<double> rhs_;
  int first_artificial_ = 0;
};

enum class VarStatus : unsigned char { AtLower, AtUpper, Basic };

// Dense-tableau bounded simplex over the standardized problem.
class Tableau {
 public:
  Tableau(const Standardized& problem, const SimplexOptions& options)
      : problem_(problem),
        eps_(options.tolerance),
        m_(problem.num_rows()),
        n_(problem.num_cols()),
        tableau_(problem.matrix()),
        upper_(problem.upper()),
        status_(static_cast<std::size_t>(problem.num_cols()), VarStatus::AtLower),
        basis_(static_cast<std::size_t>(problem.num_rows()), -1),
        basic_value_(problem.rhs()) {
    max_iterations_ = options.max_iterations > 0
                          ? options.max_iterations
                          : 200 * (m_ + n_) + 10000;
    for (int r = 0; r < m_; ++r) {
      const int art = problem.first_artificial() + r;
      basis_[static_cast<std::size_t>(r)] = art;
      status_[static_cast<std::size_t>(art)] = VarStatus::Basic;
    }
  }

  LpStatus run(LpSolution& out) {
    // Phase 1: minimize the sum of artificials.
    std::vector<double> phase1_cost(static_cast<std::size_t>(n_), 0.0);
    for (int c = problem_.first_artificial(); c < n_; ++c) {
      phase1_cost[static_cast<std::size_t>(c)] = 1.0;
    }
    LpStatus st = optimize(phase1_cost);
    if (st != LpStatus::Optimal) {
      // Phase 1 is bounded below by 0; unboundedness means numeric trouble,
      // report the iteration limit instead of a wrong certificate.
      out.iterations = iterations_;
      return st == LpStatus::Unbounded ? LpStatus::IterationLimit : st;
    }
    if (phase1_value() > 1e-6) {
      out.iterations = iterations_;
      return LpStatus::Infeasible;
    }
    seal_artificials();

    // Phase 2: the real objective.
    std::vector<double> phase2_cost(problem_.cost());
    phase2_cost.resize(static_cast<std::size_t>(n_), 0.0);
    st = optimize(phase2_cost);
    out.iterations = iterations_;
    if (st != LpStatus::Optimal) {
      return st;
    }
    finalize(out);
    return LpStatus::Optimal;
  }

 private:
  double variable_value(int c) const {
    switch (status_[static_cast<std::size_t>(c)]) {
      case VarStatus::AtLower: return 0.0;
      case VarStatus::AtUpper: return upper_[static_cast<std::size_t>(c)];
      case VarStatus::Basic:
        for (int r = 0; r < m_; ++r) {
          if (basis_[static_cast<std::size_t>(r)] == c) {
            return basic_value_[static_cast<std::size_t>(r)];
          }
        }
        return 0.0;
    }
    return 0.0;
  }

  double phase1_value() const {
    double total = 0.0;
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= problem_.first_artificial()) {
        total += basic_value_[static_cast<std::size_t>(r)];
      }
    }
    for (int c = problem_.first_artificial(); c < n_; ++c) {
      if (status_[static_cast<std::size_t>(c)] == VarStatus::AtUpper) {
        total += upper_[static_cast<std::size_t>(c)];
      }
    }
    return total;
  }

  // After phase 1, pivot leftover artificials out of the basis where
  // possible and freeze every artificial at zero so phase 2 cannot use them.
  void seal_artificials() {
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < problem_.first_artificial()) {
        continue;
      }
      int replacement = -1;
      for (int c = 0; c < problem_.first_artificial(); ++c) {
        if (status_[static_cast<std::size_t>(c)] != VarStatus::Basic &&
            std::abs(tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]) >
                1e-8) {
          replacement = c;
          break;
        }
      }
      if (replacement >= 0) {
        // Degenerate pivot: the artificial is at 0, so values do not move.
        pivot(r, replacement, /*entering_from_upper=*/
              status_[static_cast<std::size_t>(replacement)] == VarStatus::AtUpper,
              /*step=*/0.0);
      }
      // else: redundant row; the artificial stays basic at value 0.
    }
    for (int c = problem_.first_artificial(); c < n_; ++c) {
      if (status_[static_cast<std::size_t>(c)] != VarStatus::Basic) {
        status_[static_cast<std::size_t>(c)] = VarStatus::AtLower;
      }
      upper_[static_cast<std::size_t>(c)] = 0.0;
    }
  }

  LpStatus optimize(const std::vector<double>& cost) {
    compute_reduced_costs(cost);
    int degenerate_streak = 0;
    bool bland = false;
    while (true) {
      if (iterations_ >= max_iterations_) {
        return LpStatus::IterationLimit;
      }
      const int entering = choose_entering(bland);
      if (entering < 0) {
        return LpStatus::Optimal;
      }
      const bool from_upper =
          status_[static_cast<std::size_t>(entering)] == VarStatus::AtUpper;
      int leaving_row = -1;
      bool leaving_to_upper = false;
      double step = ratio_test(entering, from_upper, bland, leaving_row, leaving_to_upper);
      if (step == std::numeric_limits<double>::infinity()) {
        return LpStatus::Unbounded;
      }
      ++iterations_;
      if (step < eps_) {
        if (++degenerate_streak > 64) {
          bland = true;  // anti-cycling
        }
      } else {
        degenerate_streak = 0;
        bland = false;
      }
      if (leaving_row < 0) {
        bound_flip(entering, from_upper);
      } else {
        apply_step_and_pivot(entering, from_upper, step, leaving_row, leaving_to_upper,
                             cost);
      }
    }
  }

  void compute_reduced_costs(const std::vector<double>& cost) {
    reduced_.assign(static_cast<std::size_t>(n_), 0.0);
    for (int c = 0; c < n_; ++c) {
      reduced_[static_cast<std::size_t>(c)] = cost[static_cast<std::size_t>(c)];
    }
    for (int r = 0; r < m_; ++r) {
      const double cb = cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      if (cb == 0.0) {
        continue;
      }
      const auto& row = tableau_[static_cast<std::size_t>(r)];
      for (int c = 0; c < n_; ++c) {
        reduced_[static_cast<std::size_t>(c)] -= cb * row[static_cast<std::size_t>(c)];
      }
    }
  }

  int choose_entering(bool bland) const {
    int best = -1;
    double best_score = eps_;
    for (int c = 0; c < n_; ++c) {
      const VarStatus s = status_[static_cast<std::size_t>(c)];
      if (s == VarStatus::Basic) {
        continue;
      }
      if (upper_[static_cast<std::size_t>(c)] <= 0.0 && s == VarStatus::AtLower) {
        continue;  // fixed at zero (sealed artificials, fixed vars)
      }
      const double d = reduced_[static_cast<std::size_t>(c)];
      const double score = s == VarStatus::AtLower ? -d : d;
      if (score > best_score) {
        if (bland) {
          return c;  // first eligible index
        }
        best_score = score;
        best = c;
      }
    }
    return best;
  }

  double ratio_test(int entering, bool from_upper, bool bland, int& leaving_row,
                    bool& leaving_to_upper) const {
    const double direction = from_upper ? -1.0 : 1.0;
    double best = upper_[static_cast<std::size_t>(entering)];  // bound-flip limit
    leaving_row = -1;
    leaving_to_upper = false;
    double best_pivot_mag = 0.0;
    for (int r = 0; r < m_; ++r) {
      const double a =
          direction * tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(entering)];
      if (std::abs(a) <= eps_) {
        continue;
      }
      const int b = basis_[static_cast<std::size_t>(r)];
      const double xb = basic_value_[static_cast<std::size_t>(r)];
      double limit;
      bool to_upper;
      if (a > 0.0) {
        limit = xb / a;  // basic variable falls to its lower bound 0
        to_upper = false;
      } else {
        const double ub = upper_[static_cast<std::size_t>(b)];
        if (!std::isfinite(ub)) {
          continue;
        }
        limit = (ub - xb) / (-a);  // basic variable rises to its upper bound
        to_upper = true;
      }
      if (limit < 0.0) {
        limit = 0.0;  // numeric safety for slightly drifted basics
      }
      bool take = false;
      if (limit < best - eps_) {
        take = true;  // strictly tighter blocking bound
      } else if (limit <= best + eps_ && leaving_row >= 0) {
        // Tie between blocking rows: prefer the numerically largest pivot,
        // or the smallest basis index under Bland's rule.
        take = bland ? b < basis_[static_cast<std::size_t>(leaving_row)]
                     : std::abs(a) > best_pivot_mag;
      }
      if (take) {
        best = std::min(best, limit);
        leaving_row = r;
        leaving_to_upper = to_upper;
        best_pivot_mag = std::abs(a);
      }
    }
    return best;
  }

  void bound_flip(int entering, bool from_upper) {
    const double ub = upper_[static_cast<std::size_t>(entering)];
    const double delta = from_upper ? -ub : ub;
    for (int r = 0; r < m_; ++r) {
      basic_value_[static_cast<std::size_t>(r)] -=
          delta * tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(entering)];
    }
    status_[static_cast<std::size_t>(entering)] =
        from_upper ? VarStatus::AtLower : VarStatus::AtUpper;
  }

  void apply_step_and_pivot(int entering, bool from_upper, double step, int leaving_row,
                            bool leaving_to_upper, const std::vector<double>& cost) {
    const double direction = from_upper ? -1.0 : 1.0;
    // Move every basic variable by the step.
    for (int r = 0; r < m_; ++r) {
      basic_value_[static_cast<std::size_t>(r)] -=
          direction * step *
          tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(entering)];
    }
    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    status_[static_cast<std::size_t>(leaving)] =
        leaving_to_upper ? VarStatus::AtUpper : VarStatus::AtLower;
    // Entering variable's new value.
    const double entering_start =
        from_upper ? upper_[static_cast<std::size_t>(entering)] : 0.0;
    basic_value_[static_cast<std::size_t>(leaving_row)] =
        entering_start + direction * step;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    status_[static_cast<std::size_t>(entering)] = VarStatus::Basic;
    pivot_eliminate(leaving_row, entering);
    // Keep the reduced-cost row consistent (same elimination).
    const double d = reduced_[static_cast<std::size_t>(entering)];
    if (std::abs(d) > 0.0) {
      const auto& prow = tableau_[static_cast<std::size_t>(leaving_row)];
      for (int c = 0; c < n_; ++c) {
        reduced_[static_cast<std::size_t>(c)] -= d * prow[static_cast<std::size_t>(c)];
      }
    }
    (void)cost;
  }

  // Degenerate pivot used by seal_artificials (step 0, no value motion).
  void pivot(int row, int entering, bool entering_from_upper, double step) {
    (void)step;
    const int leaving = basis_[static_cast<std::size_t>(row)];
    status_[static_cast<std::size_t>(leaving)] = VarStatus::AtLower;
    basis_[static_cast<std::size_t>(row)] = entering;
    const double entering_start =
        entering_from_upper ? upper_[static_cast<std::size_t>(entering)] : 0.0;
    basic_value_[static_cast<std::size_t>(row)] = entering_start;
    status_[static_cast<std::size_t>(entering)] = VarStatus::Basic;
    pivot_eliminate(row, entering);
  }

  void pivot_eliminate(int pivot_row, int pivot_col) {
    auto& prow = tableau_[static_cast<std::size_t>(pivot_row)];
    const double pivot_value = prow[static_cast<std::size_t>(pivot_col)];
    COHLS_ASSERT(std::abs(pivot_value) > 1e-12, "zero pivot element");
    const double inv = 1.0 / pivot_value;
    for (int c = 0; c < n_; ++c) {
      prow[static_cast<std::size_t>(c)] *= inv;
    }
    prow[static_cast<std::size_t>(pivot_col)] = 1.0;
    for (int r = 0; r < m_; ++r) {
      if (r == pivot_row) {
        continue;
      }
      auto& row = tableau_[static_cast<std::size_t>(r)];
      const double factor = row[static_cast<std::size_t>(pivot_col)];
      if (std::abs(factor) <= 1e-13) {
        continue;
      }
      for (int c = 0; c < n_; ++c) {
        row[static_cast<std::size_t>(c)] -= factor * prow[static_cast<std::size_t>(c)];
      }
      row[static_cast<std::size_t>(pivot_col)] = 0.0;
    }
  }

  void finalize(LpSolution& out) const {
    std::vector<double> y(static_cast<std::size_t>(n_), 0.0);
    for (int c = 0; c < n_; ++c) {
      if (status_[static_cast<std::size_t>(c)] == VarStatus::AtUpper) {
        y[static_cast<std::size_t>(c)] = upper_[static_cast<std::size_t>(c)];
      }
    }
    for (int r = 0; r < m_; ++r) {
      y[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] =
          basic_value_[static_cast<std::size_t>(r)];
    }
    out.values = problem_.recover(y);
  }

  const Standardized& problem_;
  const double eps_;
  const int m_;
  const int n_;
  int max_iterations_;
  int iterations_ = 0;
  std::vector<std::vector<double>> tableau_;
  std::vector<double> upper_;
  std::vector<VarStatus> status_;
  std::vector<int> basis_;
  std::vector<double> basic_value_;
  std::vector<double> reduced_;
};

}  // namespace

LpSolution solve_lp_dense(const LpModel& model, const SimplexOptions& options) {
  LpSolution solution;
  // Reject trivially inconsistent fixed bounds early.
  for (Col c = 0; c < model.variable_count(); ++c) {
    if (model.lower_bound(c) > model.upper_bound(c)) {
      solution.status = LpStatus::Infeasible;
      return solution;
    }
  }
  Standardized standardized(model);
  Tableau tableau(standardized, options);
  solution.status = tableau.run(solution);
  if (solution.status == LpStatus::Optimal) {
    solution.objective = model.objective_value(solution.values);
  }
  return solution;
}

}  // namespace cohls::oracles
