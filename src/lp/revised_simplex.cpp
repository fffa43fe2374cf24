#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace cohls::lp {

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::Optimal: return "Optimal";
    case LpStatus::Infeasible: return "Infeasible";
    case LpStatus::Unbounded: return "Unbounded";
    case LpStatus::IterationLimit: return "IterationLimit";
    case LpStatus::CutoffReached: return "CutoffReached";
  }
  return "Unknown";
}

namespace {

/// Pivot elements smaller than this are rejected in ratio tests.
constexpr double kPivotTol = 1e-9;
/// Singularity threshold for refactorization pivots.
constexpr double kSingularTol = 1e-11;
/// Infeasibility above this after phase 1 means the LP is infeasible
/// (the dense-tableau test reference uses the same phase-1 threshold).
constexpr double kInfeasibleTol = 1e-6;

}  // namespace

class RevisedSimplex::Impl {
 public:
  Impl(const LpModel& model, const SimplexOptions& options)
      : n_(model.variable_count()),
        m_(model.constraint_count()),
        total_(n_ + m_),
        eps_(options.tolerance),
        refactor_interval_(std::max(4, options.refactor_interval)) {
    max_iterations_ = options.max_iterations > 0 ? options.max_iterations
                                                 : 200 * (m_ + total_) + 10000;
    build_columns(model);
  }

  void set_bounds(Col c, double lower, double upper) {
    COHLS_EXPECT(c >= 0 && c < n_, "column index out of range");
    const std::size_t j = static_cast<std::size_t>(c);
    lower_[j] = lower;
    upper_[j] = upper;
    if (!basic_.empty()) {
      sanitize_status(c);
    }
  }

  void set_objective_cutoff(double cutoff) { cutoff_ = cutoff; }

  LpSolution solve() {
    begin_solve(/*warm=*/false);
    reset_to_logical_basis();
    LpSolution out = primal_solve();
    end_solve(out);
    return out;
  }

  LpSolution solve_from(const Basis& start) {
    begin_solve(/*warm=*/true);
    if (!install(start)) {
      return degrade_to_cold();
    }
    if (!dual_feasible()) {
      return degrade_to_cold();
    }
    LpSolution out = dual_solve();
    if (out.status == LpStatus::IterationLimit) {
      return degrade_to_cold();
    }
    end_solve(out);
    return out;
  }

  [[nodiscard]] const Basis& basis() const { return last_basis_; }
  [[nodiscard]] const SolveStats& last_stats() const { return last_stats_; }
  [[nodiscard]] const SolveStats& total_stats() const { return total_stats_; }

 private:
  /// Fills the CSC columns, objective, right-hand sides and the starting
  /// bounds (the model's, plus the logical bounds each row sense implies).
  void build_columns(const LpModel& model) {
    lower_.resize(static_cast<std::size_t>(total_));
    upper_.resize(static_cast<std::size_t>(total_));
    cost_.assign(static_cast<std::size_t>(total_), 0.0);
    for (Col c = 0; c < n_; ++c) {
      lower_[static_cast<std::size_t>(c)] = model.lower_bound(c);
      upper_[static_cast<std::size_t>(c)] = model.upper_bound(c);
      cost_[static_cast<std::size_t>(c)] = model.objective_coefficient(c);
    }
    b_.resize(static_cast<std::size_t>(m_));
    for (Row r = 0; r < m_; ++r) {
      b_[static_cast<std::size_t>(r)] = model.row_rhs(r);
      const std::size_t logical = static_cast<std::size_t>(n_ + r);
      switch (model.row_sense(r)) {
        case RowSense::LessEqual:
          lower_[logical] = 0.0;
          upper_[logical] = kInfinity;
          break;
        case RowSense::GreaterEqual:
          lower_[logical] = -kInfinity;
          upper_[logical] = 0.0;
          break;
        case RowSense::Equal:
          lower_[logical] = 0.0;
          upper_[logical] = 0.0;
          break;
      }
    }
    // CSC of the structural columns (the model stores rows).
    std::vector<int> counts(static_cast<std::size_t>(n_), 0);
    for (Row r = 0; r < m_; ++r) {
      for (const auto& [col, coef] : model.row_terms(r)) {
        if (coef != 0.0) {
          ++counts[static_cast<std::size_t>(col)];
        }
      }
    }
    col_start_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (Col c = 0; c < n_; ++c) {
      col_start_[static_cast<std::size_t>(c) + 1] =
          col_start_[static_cast<std::size_t>(c)] + counts[static_cast<std::size_t>(c)];
    }
    row_idx_.resize(static_cast<std::size_t>(col_start_.back()));
    val_.resize(row_idx_.size());
    std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
    for (Row r = 0; r < m_; ++r) {
      for (const auto& [col, coef] : model.row_terms(r)) {
        if (coef == 0.0) {
          continue;
        }
        const int slot = fill[static_cast<std::size_t>(col)]++;
        row_idx_[static_cast<std::size_t>(slot)] = r;
        val_[static_cast<std::size_t>(slot)] = coef;
      }
    }
  }

  // --- factorization: dense refactorized inverse + eta file -----------------

  struct Eta {
    int row;
    /// (index, multiplier) pairs; includes (row, 1/pivot).
    std::vector<std::pair<int, double>> entries;
  };

  [[nodiscard]] double* inv_column(int i) {
    return inv0_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(m_);
  }
  [[nodiscard]] const double* inv_column(int i) const {
    return inv0_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(m_);
  }

  void set_identity_factor() {
    inv0_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      inv_column(i)[i] = 1.0;
    }
    etas_.clear();
  }

  /// Rebuilds the dense inverse of the current basis matrix and clears the
  /// eta file. Returns false when the basis is (numerically) singular.
  bool refactor() {
    ++last_stats_.refactorizations;
    // Row-major working copies of B and its inverse-in-progress.
    const std::size_t mm = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    work_matrix_.assign(mm, 0.0);
    work_inverse_.assign(mm, 0.0);
    auto at = [&](std::vector<double>& a, int r, int c) -> double& {
      return a[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
               static_cast<std::size_t>(c)];
    };
    for (int i = 0; i < m_; ++i) {
      const int col = basic_[static_cast<std::size_t>(i)];
      if (col < n_) {
        for (int k = col_start_[static_cast<std::size_t>(col)];
             k < col_start_[static_cast<std::size_t>(col) + 1]; ++k) {
          at(work_matrix_, row_idx_[static_cast<std::size_t>(k)], i) =
              val_[static_cast<std::size_t>(k)];
        }
      } else {
        at(work_matrix_, col - n_, i) = 1.0;
      }
      at(work_inverse_, i, i) = 1.0;
    }
    // Gauss-Jordan with partial pivoting over the augmented [B | I].
    for (int k = 0; k < m_; ++k) {
      int pivot_row = k;
      double best = std::abs(at(work_matrix_, k, k));
      for (int r = k + 1; r < m_; ++r) {
        const double mag = std::abs(at(work_matrix_, r, k));
        if (mag > best) {
          best = mag;
          pivot_row = r;
        }
      }
      if (best <= kSingularTol) {
        return false;
      }
      if (pivot_row != k) {
        for (int c = 0; c < m_; ++c) {
          std::swap(at(work_matrix_, k, c), at(work_matrix_, pivot_row, c));
          std::swap(at(work_inverse_, k, c), at(work_inverse_, pivot_row, c));
        }
      }
      const double inv_pivot = 1.0 / at(work_matrix_, k, k);
      for (int c = 0; c < m_; ++c) {
        at(work_matrix_, k, c) *= inv_pivot;
        at(work_inverse_, k, c) *= inv_pivot;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == k) {
          continue;
        }
        const double factor = at(work_matrix_, r, k);
        if (factor == 0.0) {
          continue;
        }
        for (int c = 0; c < m_; ++c) {
          at(work_matrix_, r, c) -= factor * at(work_matrix_, k, c);
          at(work_inverse_, r, c) -= factor * at(work_inverse_, k, c);
        }
      }
    }
    inv0_.resize(mm);
    for (int i = 0; i < m_; ++i) {
      double* col = inv_column(i);
      for (int r = 0; r < m_; ++r) {
        col[r] = at(work_inverse_, r, i);
      }
    }
    etas_.clear();
    return true;
  }

  /// v := B^-1 v for a dense v.
  void ftran(std::vector<double>& v) {
    work_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      const double vr = v[static_cast<std::size_t>(r)];
      if (vr == 0.0) {
        continue;
      }
      const double* col = inv_column(r);
      for (int i = 0; i < m_; ++i) {
        work_[static_cast<std::size_t>(i)] += vr * col[i];
      }
    }
    apply_etas(work_);
    v.swap(work_);
  }

  void apply_etas(std::vector<double>& v) const {
    for (const Eta& eta : etas_) {
      const double t = v[static_cast<std::size_t>(eta.row)];
      if (t == 0.0) {
        continue;
      }
      for (const auto& [i, mult] : eta.entries) {
        if (i == eta.row) {
          v[static_cast<std::size_t>(i)] = mult * t;
        } else {
          v[static_cast<std::size_t>(i)] += mult * t;
        }
      }
    }
  }

  /// w := B^-1 A_col, exploiting the sparsity of the column.
  void ftran_column(int col, std::vector<double>& w) {
    w.assign(static_cast<std::size_t>(m_), 0.0);
    if (col < n_) {
      for (int k = col_start_[static_cast<std::size_t>(col)];
           k < col_start_[static_cast<std::size_t>(col) + 1]; ++k) {
        const double coef = val_[static_cast<std::size_t>(k)];
        const double* inv = inv_column(row_idx_[static_cast<std::size_t>(k)]);
        for (int i = 0; i < m_; ++i) {
          w[static_cast<std::size_t>(i)] += coef * inv[i];
        }
      }
    } else {
      const double* inv = inv_column(col - n_);
      for (int i = 0; i < m_; ++i) {
        w[static_cast<std::size_t>(i)] = inv[i];
      }
    }
    apply_etas(w);
  }

  /// v := B^-T v.
  void btran(std::vector<double>& v) {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double dot = 0.0;
      for (const auto& [i, mult] : it->entries) {
        dot += mult * v[static_cast<std::size_t>(i)];
      }
      v[static_cast<std::size_t>(it->row)] = dot;
    }
    work_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      const double* col = inv_column(i);
      double dot = 0.0;
      for (int r = 0; r < m_; ++r) {
        dot += col[r] * v[static_cast<std::size_t>(r)];
      }
      work_[static_cast<std::size_t>(i)] = dot;
    }
    v.swap(work_);
  }

  /// y . A_col over the sparse column.
  [[nodiscard]] double column_dot(int col, const std::vector<double>& y) const {
    if (col >= n_) {
      return y[static_cast<std::size_t>(col - n_)];
    }
    double dot = 0.0;
    for (int k = col_start_[static_cast<std::size_t>(col)];
         k < col_start_[static_cast<std::size_t>(col) + 1]; ++k) {
      dot += val_[static_cast<std::size_t>(k)] * y[static_cast<std::size_t>(
                                                    row_idx_[static_cast<std::size_t>(k)])];
    }
    return dot;
  }

  void append_eta(int pivot_slot, const std::vector<double>& w) {
    Eta eta;
    eta.row = pivot_slot;
    const double pivot = w[static_cast<std::size_t>(pivot_slot)];
    COHLS_ASSERT(std::abs(pivot) > kSingularTol, "zero pivot in eta update");
    eta.entries.reserve(8);
    for (int i = 0; i < m_; ++i) {
      const double wi = w[static_cast<std::size_t>(i)];
      if (i == pivot_slot) {
        eta.entries.emplace_back(i, 1.0 / pivot);
      } else if (std::abs(wi) > 1e-13) {
        eta.entries.emplace_back(i, -wi / pivot);
      }
    }
    etas_.push_back(std::move(eta));
  }

  /// True when the eta file is due for compaction; refactorizes and
  /// recomputes the basic values.
  bool maybe_refactor() {
    if (static_cast<int>(etas_.size()) < refactor_interval_) {
      return true;
    }
    if (!refactor()) {
      return false;
    }
    compute_basics();
    return true;
  }

  // --- basis state ----------------------------------------------------------

  void reset_to_logical_basis() {
    basic_.resize(static_cast<std::size_t>(m_));
    status_.assign(static_cast<std::size_t>(total_), BasisStatus::AtLower);
    pos_.assign(static_cast<std::size_t>(total_), -1);
    for (Col c = 0; c < n_; ++c) {
      status_[static_cast<std::size_t>(c)] = default_nonbasic_status(c);
    }
    for (int r = 0; r < m_; ++r) {
      const int logical = n_ + r;
      basic_[static_cast<std::size_t>(r)] = logical;
      status_[static_cast<std::size_t>(logical)] = BasisStatus::Basic;
      pos_[static_cast<std::size_t>(logical)] = r;
    }
    set_identity_factor();
    compute_basics();
  }

  [[nodiscard]] BasisStatus default_nonbasic_status(int j) const {
    const std::size_t s = static_cast<std::size_t>(j);
    if (std::isfinite(lower_[s])) {
      return BasisStatus::AtLower;
    }
    if (std::isfinite(upper_[s])) {
      return BasisStatus::AtUpper;
    }
    return BasisStatus::Free;
  }

  /// Repairs a nonbasic status that no longer matches the bounds (after a
  /// set_bounds between solves).
  void sanitize_status(int j) {
    const std::size_t s = static_cast<std::size_t>(j);
    if (s >= status_.size() || status_[s] == BasisStatus::Basic) {
      return;
    }
    if (status_[s] == BasisStatus::AtLower && !std::isfinite(lower_[s])) {
      status_[s] = default_nonbasic_status(j);
    } else if (status_[s] == BasisStatus::AtUpper && !std::isfinite(upper_[s])) {
      status_[s] = default_nonbasic_status(j);
    } else if (status_[s] == BasisStatus::Free &&
               (std::isfinite(lower_[s]) || std::isfinite(upper_[s]))) {
      status_[s] = default_nonbasic_status(j);
    }
  }

  [[nodiscard]] double nonbasic_value(int j) const {
    switch (status_[static_cast<std::size_t>(j)]) {
      case BasisStatus::AtLower: return lower_[static_cast<std::size_t>(j)];
      case BasisStatus::AtUpper: return upper_[static_cast<std::size_t>(j)];
      case BasisStatus::Free: return 0.0;
      case BasisStatus::Basic: break;
    }
    COHLS_ASSERT(false, "basic column has no nonbasic value");
    return 0.0;
  }

  void compute_basics() {
    rhs_work_ = b_;
    for (int j = 0; j < total_; ++j) {
      if (status_[static_cast<std::size_t>(j)] == BasisStatus::Basic) {
        continue;
      }
      const double value = nonbasic_value(j);
      if (value == 0.0) {
        continue;
      }
      if (j < n_) {
        for (int k = col_start_[static_cast<std::size_t>(j)];
             k < col_start_[static_cast<std::size_t>(j) + 1]; ++k) {
          rhs_work_[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(k)])] -=
              val_[static_cast<std::size_t>(k)] * value;
        }
      } else {
        rhs_work_[static_cast<std::size_t>(j - n_)] -= value;
      }
    }
    ftran(rhs_work_);
    xB_ = rhs_work_;
  }

  /// Installs a caller-supplied basis. Reuses the current factorization when
  /// the basic set is unchanged (the first-child case in depth-first branch
  /// and bound); otherwise refactorizes from scratch.
  bool install(const Basis& start) {
    if (static_cast<int>(start.basic.size()) != m_ ||
        static_cast<int>(start.status.size()) != total_) {
      return false;
    }
    int basic_count = 0;
    for (int j = 0; j < total_; ++j) {
      if (start.status[static_cast<std::size_t>(j)] == BasisStatus::Basic) {
        ++basic_count;
      }
    }
    if (basic_count != m_) {
      return false;
    }
    for (int i = 0; i < m_; ++i) {
      const int col = start.basic[static_cast<std::size_t>(i)];
      if (col < 0 || col >= total_ ||
          start.status[static_cast<std::size_t>(col)] != BasisStatus::Basic) {
        return false;
      }
    }
    const bool same_basic = basic_ == start.basic && !inv0_.empty();
    status_ = start.status;
    pos_.assign(static_cast<std::size_t>(total_), -1);
    for (int i = 0; i < m_; ++i) {
      pos_[static_cast<std::size_t>(start.basic[static_cast<std::size_t>(i)])] = i;
    }
    for (int j = 0; j < total_; ++j) {
      sanitize_status(j);
    }
    if (!same_basic) {
      basic_ = start.basic;
      if (!refactor()) {
        return false;
      }
    }
    compute_basics();
    return true;
  }

  // --- primal simplex -------------------------------------------------------

  [[nodiscard]] bool is_fixed(int j) const {
    const std::size_t s = static_cast<std::size_t>(j);
    return upper_[s] - lower_[s] <= 0.0;
  }

  LpSolution primal_solve() {
    LpSolution out;
    LpStatus st = primal_loop(/*phase1=*/true);
    if (st == LpStatus::Infeasible || st == LpStatus::IterationLimit) {
      out.status = st;
      out.iterations = static_cast<int>(solve_iterations());
      return out;
    }
    st = primal_loop(/*phase1=*/false);
    out.status = st == LpStatus::Optimal ? LpStatus::Optimal : st;
    out.iterations = static_cast<int>(solve_iterations());
    if (out.status == LpStatus::Optimal) {
      finalize(out);
    }
    return out;
  }

  /// One primal phase. Phase 1 minimizes the sum of bound violations of the
  /// basic variables (no artificial columns); phase 2 minimizes the real
  /// objective once every basic variable is within its bounds.
  LpStatus primal_loop(bool phase1) {
    int degenerate_streak = 0;
    bool bland = false;
    while (true) {
      if (solve_iterations() >= max_iterations_) {
        return LpStatus::IterationLimit;
      }
      // Cost of the basic variables for this phase.
      double infeasibility = 0.0;
      y_.assign(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        const int col = basic_[static_cast<std::size_t>(i)];
        const std::size_t s = static_cast<std::size_t>(col);
        const double x = xB_[static_cast<std::size_t>(i)];
        double c = 0.0;
        if (phase1) {
          if (x < lower_[s] - eps_) {
            c = -1.0;
            infeasibility += lower_[s] - x;
          } else if (x > upper_[s] + eps_) {
            c = 1.0;
            infeasibility += x - upper_[s];
          }
        } else {
          c = cost_[s];
        }
        y_[static_cast<std::size_t>(i)] = c;
      }
      if (phase1 && infeasibility <= eps_) {
        return LpStatus::Optimal;  // primal feasible; phase 1 done
      }
      btran(y_);

      // Pricing over the sparse columns.
      int entering = -1;
      double entering_dir = 1.0;
      double best_score = eps_;
      for (int j = 0; j < total_; ++j) {
        const BasisStatus s = status_[static_cast<std::size_t>(j)];
        if (s == BasisStatus::Basic || is_fixed(j)) {
          continue;
        }
        const double cj = phase1 ? 0.0 : cost_[static_cast<std::size_t>(j)];
        const double d = cj - column_dot(j, y_);
        double score = 0.0;
        double dir = 1.0;
        if (s == BasisStatus::AtLower) {
          score = -d;
          dir = 1.0;
        } else if (s == BasisStatus::AtUpper) {
          score = d;
          dir = -1.0;
        } else {  // Free
          score = std::abs(d);
          dir = d < 0.0 ? 1.0 : -1.0;
        }
        if (score > best_score) {
          entering = j;
          entering_dir = dir;
          if (bland) {
            break;  // first eligible index
          }
          best_score = score;
        }
      }
      if (entering < 0) {
        if (phase1) {
          // No improving direction left; feasible iff the residual is noise.
          return infeasibility > kInfeasibleTol ? LpStatus::Infeasible
                                                : LpStatus::Optimal;
        }
        return LpStatus::Optimal;
      }

      ftran_column(entering, w_);
      const RatioOutcome ratio = ratio_test(entering, entering_dir, phase1, bland);
      if (ratio.unbounded) {
        // Phase 1 is bounded below by zero, so an unbounded ray there is
        // numeric trouble; report the limit instead of a wrong certificate.
        return phase1 ? LpStatus::IterationLimit : LpStatus::Unbounded;
      }
      bump_iterations(phase1);
      if (ratio.step < eps_) {
        if (++degenerate_streak > 64) {
          bland = true;
        }
      } else {
        degenerate_streak = 0;
        bland = false;
      }
      if (!apply_primal_step(entering, entering_dir, ratio)) {
        return LpStatus::IterationLimit;  // refactorization failed (singular)
      }
    }
  }

  struct RatioOutcome {
    double step = 0.0;
    int slot = -1;  ///< leaving basis slot; -1 = the entering bound flips
    BasisStatus leave_to = BasisStatus::AtLower;
    bool unbounded = false;
  };

  RatioOutcome ratio_test(int entering, double dir, bool phase1, bool bland) const {
    RatioOutcome out;
    const std::size_t es = static_cast<std::size_t>(entering);
    double best = kInfinity;
    if (std::isfinite(lower_[es]) && std::isfinite(upper_[es])) {
      best = upper_[es] - lower_[es];  // bound-to-bound flip
    }
    double best_pivot_mag = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double alpha = dir * w_[static_cast<std::size_t>(i)];
      if (std::abs(alpha) <= kPivotTol) {
        continue;
      }
      const int bcol = basic_[static_cast<std::size_t>(i)];
      const std::size_t bs = static_cast<std::size_t>(bcol);
      const double x = xB_[static_cast<std::size_t>(i)];
      const double lo = lower_[bs];
      const double hi = upper_[bs];
      // The basic variable moves by -alpha per unit step of the entering.
      double limit = kInfinity;
      BasisStatus to = BasisStatus::AtLower;
      if (phase1 && x < lo - eps_) {
        if (alpha < 0.0) {
          limit = (lo - x) / (-alpha);  // infeasible-below blocks on re-entry
          to = BasisStatus::AtLower;
        }
      } else if (phase1 && x > hi + eps_) {
        if (alpha > 0.0) {
          limit = (x - hi) / alpha;
          to = BasisStatus::AtUpper;
        }
      } else if (alpha > 0.0) {
        if (std::isfinite(lo)) {
          limit = (x - lo) / alpha;
          to = BasisStatus::AtLower;
        }
      } else {
        if (std::isfinite(hi)) {
          limit = (hi - x) / (-alpha);
          to = BasisStatus::AtUpper;
        }
      }
      if (!std::isfinite(limit)) {
        continue;
      }
      if (limit < 0.0) {
        limit = 0.0;  // numeric safety for slightly drifted basics
      }
      bool take = false;
      if (limit < best - eps_) {
        take = true;
      } else if (limit <= best + eps_ && out.slot >= 0) {
        take = bland ? bcol < basic_[static_cast<std::size_t>(out.slot)]
                     : std::abs(alpha) > best_pivot_mag;
      } else if (limit <= best + eps_ && out.slot < 0 && limit <= best) {
        take = true;
      }
      if (take) {
        best = std::min(best, limit);
        out.slot = i;
        out.leave_to = to;
        best_pivot_mag = std::abs(alpha);
      }
    }
    if (!std::isfinite(best)) {
      out.unbounded = true;
      return out;
    }
    out.step = best;
    return out;
  }

  bool apply_primal_step(int entering, double dir, const RatioOutcome& ratio) {
    const std::size_t es = static_cast<std::size_t>(entering);
    for (int i = 0; i < m_; ++i) {
      xB_[static_cast<std::size_t>(i)] -= dir * ratio.step * w_[static_cast<std::size_t>(i)];
    }
    if (ratio.slot < 0) {
      // Bound flip: the entering variable travels to its opposite bound.
      status_[es] = status_[es] == BasisStatus::AtUpper ? BasisStatus::AtLower
                                                        : BasisStatus::AtUpper;
      return true;
    }
    const double entering_start = nonbasic_value(entering);
    const int leaving = basic_[static_cast<std::size_t>(ratio.slot)];
    status_[static_cast<std::size_t>(leaving)] = ratio.leave_to;
    pos_[static_cast<std::size_t>(leaving)] = -1;
    basic_[static_cast<std::size_t>(ratio.slot)] = entering;
    status_[es] = BasisStatus::Basic;
    pos_[es] = ratio.slot;
    xB_[static_cast<std::size_t>(ratio.slot)] = entering_start + dir * ratio.step;
    append_eta(ratio.slot, w_);
    return maybe_refactor();
  }

  // --- dual simplex ---------------------------------------------------------

  /// Verifies the installed statuses are dual feasible (reduced costs agree
  /// with the nonbasic rests). A basis taken from a parent node's optimum
  /// always is — bound changes do not move reduced costs — so a violation
  /// indicates drift and triggers the cold fallback.
  bool dual_feasible() {
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      y_[static_cast<std::size_t>(i)] =
          cost_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])];
    }
    btran(y_);
    const double tol = 16.0 * eps_;
    for (int j = 0; j < total_; ++j) {
      const BasisStatus s = status_[static_cast<std::size_t>(j)];
      if (s == BasisStatus::Basic || is_fixed(j)) {
        continue;
      }
      const double d = cost_[static_cast<std::size_t>(j)] - column_dot(j, y_);
      if ((s == BasisStatus::AtLower && d < -tol) ||
          (s == BasisStatus::AtUpper && d > tol) ||
          (s == BasisStatus::Free && std::abs(d) > tol)) {
        return false;
      }
    }
    return true;
  }

  LpSolution dual_solve() {
    LpSolution out;
    // The dual re-solve after one branching bound change needs a handful of
    // pivots; a long dual run indicates degeneracy trouble, and the cold
    // primal fallback is both correct and usually faster at that point.
    const long dual_cap = std::min<long>(max_iterations_, 200 + 2L * total_);
    while (true) {
      if (last_stats_.dual_pivots >= dual_cap) {
        out.status = LpStatus::IterationLimit;
        out.iterations = static_cast<int>(solve_iterations());
        return out;
      }
      // The iterate's objective (basics at xB, nonbasics at their rests)
      // equals the dual objective of this dual-feasible basis, which the
      // dual simplex drives monotonically upward — so crossing the cutoff
      // proves the LP optimum cannot beat it and the caller may prune.
      if (cutoff_ < kInfinity) {
        const double lower_bound = iterate_objective();
        if (lower_bound >= cutoff_) {
          out.status = LpStatus::CutoffReached;
          out.objective = lower_bound;
          out.iterations = static_cast<int>(solve_iterations());
          return out;
        }
      }
      // Leaving variable: the worst primal bound violation.
      int slot = -1;
      double worst = eps_;
      bool above = false;
      for (int i = 0; i < m_; ++i) {
        const std::size_t bs =
            static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
        const double x = xB_[static_cast<std::size_t>(i)];
        if (x < lower_[bs] - eps_ && lower_[bs] - x > worst) {
          worst = lower_[bs] - x;
          slot = i;
          above = false;
        } else if (x > upper_[bs] + eps_ && x - upper_[bs] > worst) {
          worst = x - upper_[bs];
          slot = i;
          above = true;
        }
      }
      if (slot < 0) {
        out.status = LpStatus::Optimal;
        out.iterations = static_cast<int>(solve_iterations());
        finalize(out);
        return out;
      }

      // rho = B^-T e_slot gives the pivot row; alpha_j = rho . A_j.
      rho_.assign(static_cast<std::size_t>(m_), 0.0);
      rho_[static_cast<std::size_t>(slot)] = 1.0;
      btran(rho_);
      y_.assign(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        y_[static_cast<std::size_t>(i)] =
            cost_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])];
      }
      btran(y_);

      const double e = above ? 1.0 : -1.0;
      // Pass 1: the smallest dual ratio d_j / (e * alpha_j).
      double min_ratio = kInfinity;
      for (int j = 0; j < total_; ++j) {
        const BasisStatus s = status_[static_cast<std::size_t>(j)];
        if (s == BasisStatus::Basic || is_fixed(j)) {
          continue;
        }
        const double sigma = e * column_dot(j, rho_);
        if (!eligible_dual(s, sigma)) {
          continue;
        }
        const double d = cost_[static_cast<std::size_t>(j)] - column_dot(j, y_);
        const double r = std::max(0.0, dual_ratio(s, d, sigma));
        min_ratio = std::min(min_ratio, r);
      }
      if (!std::isfinite(min_ratio)) {
        // No column can absorb the violation: the LP is primal infeasible.
        out.status = LpStatus::Infeasible;
        out.iterations = static_cast<int>(solve_iterations());
        return out;
      }
      // Pass 2: among near-minimal ratios, the largest pivot magnitude.
      int entering = -1;
      double best_mag = 0.0;
      for (int j = 0; j < total_; ++j) {
        const BasisStatus s = status_[static_cast<std::size_t>(j)];
        if (s == BasisStatus::Basic || is_fixed(j)) {
          continue;
        }
        const double alpha = column_dot(j, rho_);
        const double sigma = e * alpha;
        if (!eligible_dual(s, sigma)) {
          continue;
        }
        const double d = cost_[static_cast<std::size_t>(j)] - column_dot(j, y_);
        const double r = std::max(0.0, dual_ratio(s, d, sigma));
        if (r <= min_ratio + eps_ && std::abs(alpha) > best_mag) {
          best_mag = std::abs(alpha);
          entering = j;
        }
      }
      if (entering < 0) {
        out.status = LpStatus::Infeasible;
        out.iterations = static_cast<int>(solve_iterations());
        return out;
      }

      ftran_column(entering, w_);
      const double pivot = w_[static_cast<std::size_t>(slot)];
      if (std::abs(pivot) <= kPivotTol) {
        // The factorized pivot disagrees with the priced one: drift. Let the
        // caller fall back to a cold solve.
        out.status = LpStatus::IterationLimit;
        out.iterations = static_cast<int>(solve_iterations());
        return out;
      }
      const int leaving = basic_[static_cast<std::size_t>(slot)];
      const std::size_t ls = static_cast<std::size_t>(leaving);
      const double target = above ? upper_[ls] : lower_[ls];
      const double delta = (xB_[static_cast<std::size_t>(slot)] - target) / pivot;
      const double entering_value = nonbasic_value(entering) + delta;
      for (int i = 0; i < m_; ++i) {
        xB_[static_cast<std::size_t>(i)] -= delta * w_[static_cast<std::size_t>(i)];
      }
      status_[ls] = above ? BasisStatus::AtUpper : BasisStatus::AtLower;
      pos_[ls] = -1;
      basic_[static_cast<std::size_t>(slot)] = entering;
      status_[static_cast<std::size_t>(entering)] = BasisStatus::Basic;
      pos_[static_cast<std::size_t>(entering)] = slot;
      xB_[static_cast<std::size_t>(slot)] = entering_value;
      append_eta(slot, w_);
      ++last_stats_.dual_pivots;
      if (!maybe_refactor()) {
        out.status = LpStatus::IterationLimit;
        out.iterations = static_cast<int>(solve_iterations());
        return out;
      }
    }
  }

  [[nodiscard]] static bool eligible_dual(BasisStatus s, double sigma) {
    switch (s) {
      case BasisStatus::AtLower: return sigma > kPivotTol;
      case BasisStatus::AtUpper: return sigma < -kPivotTol;
      case BasisStatus::Free: return std::abs(sigma) > kPivotTol;
      case BasisStatus::Basic: break;
    }
    return false;
  }

  [[nodiscard]] static double dual_ratio(BasisStatus s, double d, double sigma) {
    if (s == BasisStatus::Free) {
      return std::abs(d) / std::abs(sigma);
    }
    return d / sigma;
  }

  // --- solve plumbing -------------------------------------------------------

  void begin_solve(bool warm) {
    last_stats_ = SolveStats{};
    if (warm) {
      last_stats_.warm_solves = 1;
    } else {
      last_stats_.cold_solves = 1;
    }
  }

  LpSolution degrade_to_cold() {
    last_stats_.warm_degraded += 1;
    last_stats_.cold_solves += 1;
    reset_to_logical_basis();
    LpSolution out = primal_solve();
    end_solve(out);
    return out;
  }

  void end_solve(LpSolution& out) {
    if (out.status == LpStatus::Optimal) {
      last_basis_.basic = basic_;
      last_basis_.status = status_;
    } else {
      last_basis_ = Basis{};
    }
    total_stats_.accumulate(last_stats_);
    (void)out;
  }

  [[nodiscard]] long solve_iterations() const {
    return last_stats_.primal_pivots + last_stats_.dual_pivots;
  }

  void bump_iterations(bool phase1) {
    (void)phase1;
    ++last_stats_.primal_pivots;
  }

  /// Objective of the current iterate: basics at xB_, nonbasics at their
  /// resting bounds. Identical to what finalize() reports, without
  /// materializing the value vector.
  [[nodiscard]] double iterate_objective() const {
    double objective = 0.0;
    for (Col c = 0; c < n_; ++c) {
      const std::size_t s = static_cast<std::size_t>(c);
      const double value = status_[s] == BasisStatus::Basic
                               ? xB_[static_cast<std::size_t>(pos_[s])]
                               : nonbasic_value(c);
      objective += cost_[s] * value;
    }
    return objective;
  }

  void finalize(LpSolution& out) const {
    out.values.assign(static_cast<std::size_t>(n_), 0.0);
    double objective = 0.0;
    for (Col c = 0; c < n_; ++c) {
      const std::size_t s = static_cast<std::size_t>(c);
      const double value = status_[s] == BasisStatus::Basic
                               ? xB_[static_cast<std::size_t>(pos_[s])]
                               : nonbasic_value(c);
      out.values[s] = value;
      objective += cost_[s] * value;
    }
    out.objective = objective;
  }

  // --- data -----------------------------------------------------------------

  // The model, fixed at construction: sparse structural columns (CSC),
  // objective and right-hand sides. Logical column n_ + r is the implicit
  // unit column of row r.
  const int n_;      ///< structural columns
  const int m_;      ///< rows (= logical columns)
  const int total_;  ///< n_ + m_
  std::vector<int> col_start_;
  std::vector<int> row_idx_;
  std::vector<double> val_;
  std::vector<double> cost_;  ///< size total_ (logicals cost 0)
  std::vector<double> b_;     ///< row right-hand sides
  const double eps_;
  const int refactor_interval_;
  int max_iterations_;

  /// Dual-solve objective cutoff; +infinity disables (see the public doc).
  double cutoff_ = kInfinity;

  // Current bounds, structural columns first, then one logical per row;
  // branch and bound overrides the structural ones between solves.
  std::vector<double> lower_;
  std::vector<double> upper_;

  // Basis factorization: dense refactorized inverse (column-major) + etas.
  std::vector<double> inv0_;
  std::vector<Eta> etas_;

  // Basis state.
  std::vector<int> basic_;
  std::vector<BasisStatus> status_;
  std::vector<int> pos_;
  std::vector<double> xB_;

  Basis last_basis_;
  SolveStats last_stats_;
  SolveStats total_stats_;

  // Scratch buffers reused across iterations.
  std::vector<double> work_;
  std::vector<double> work_matrix_;
  std::vector<double> work_inverse_;
  std::vector<double> rhs_work_;
  std::vector<double> y_;
  std::vector<double> rho_;
  std::vector<double> w_;
};

RevisedSimplex::RevisedSimplex(const LpModel& model, const SimplexOptions& options)
    : impl_(std::make_unique<Impl>(model, options)) {}
RevisedSimplex::~RevisedSimplex() = default;
RevisedSimplex::RevisedSimplex(RevisedSimplex&&) noexcept = default;
RevisedSimplex& RevisedSimplex::operator=(RevisedSimplex&&) noexcept = default;

void RevisedSimplex::set_bounds(Col c, double lower, double upper) {
  impl_->set_bounds(c, lower, upper);
}

void RevisedSimplex::set_objective_cutoff(double cutoff) {
  impl_->set_objective_cutoff(cutoff);
}

LpSolution RevisedSimplex::solve() { return impl_->solve(); }

LpSolution RevisedSimplex::solve_from(const Basis& start) {
  if (start.empty()) {
    return impl_->solve();
  }
  return impl_->solve_from(start);
}

const Basis& RevisedSimplex::basis() const { return impl_->basis(); }
const SolveStats& RevisedSimplex::last_stats() const { return impl_->last_stats(); }
const SolveStats& RevisedSimplex::total_stats() const { return impl_->total_stats(); }

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options) {
  for (Col c = 0; c < model.variable_count(); ++c) {
    if (model.lower_bound(c) > model.upper_bound(c)) {
      LpSolution solution;
      solution.status = LpStatus::Infeasible;
      return solution;
    }
  }
  RevisedSimplex solver(model, options);
  return solver.solve();
}

}  // namespace cohls::lp
