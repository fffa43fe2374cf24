#include "lp/presolve.hpp"

#include <cmath>

namespace cohls::lp {

namespace {

constexpr double kFixTolerance = 1e-9;
constexpr double kFeasTolerance = 1e-7;

/// Working copy of the model that supports in-place bound tightening and
/// lazy row/column deletion.
struct Working {
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<double> objective;
  std::vector<std::vector<Term>> rows;
  std::vector<RowSense> senses;
  std::vector<double> rhs;
  std::vector<bool> row_alive;
  std::vector<bool> col_alive;

  explicit Working(const LpModel& m) {
    const int n = m.variable_count();
    const int rows_count = m.constraint_count();
    lower.reserve(static_cast<std::size_t>(n));
    upper.reserve(static_cast<std::size_t>(n));
    objective.reserve(static_cast<std::size_t>(n));
    rows.reserve(static_cast<std::size_t>(rows_count));
    senses.reserve(static_cast<std::size_t>(rows_count));
    rhs.reserve(static_cast<std::size_t>(rows_count));
    for (Col c = 0; c < n; ++c) {
      lower.push_back(m.lower_bound(c));
      upper.push_back(m.upper_bound(c));
      objective.push_back(m.objective_coefficient(c));
    }
    for (Row r = 0; r < rows_count; ++r) {
      rows.push_back(m.row_terms(r));
      senses.push_back(m.row_sense(r));
      rhs.push_back(m.row_rhs(r));
    }
    row_alive.assign(rows.size(), true);
    col_alive.assign(static_cast<std::size_t>(n), true);
  }
};

}  // namespace

std::vector<double> Presolved::restore(const std::vector<double>& reduced) const {
  std::vector<double> full(origins_.size(), 0.0);
  for (std::size_t c = 0; c < origins_.size(); ++c) {
    const ColumnOrigin& origin = origins_[c];
    if (origin.fixed) {
      full[c] = origin.value;
    } else {
      COHLS_EXPECT(origin.reduced_index >= 0 &&
                       static_cast<std::size_t>(origin.reduced_index) < reduced.size(),
                   "reduced solution arity does not match the presolve");
      full[c] = reduced[static_cast<std::size_t>(origin.reduced_index)];
    }
  }
  return full;
}

Presolved presolve(const LpModel& original) {
  Presolved out;
  Working w(original);

  bool changed = true;
  while (changed && !out.infeasible_) {
    changed = false;

    // -- fix columns whose bounds have closed --------------------------------
    bool fixed_any = false;
    for (std::size_t c = 0; c < w.col_alive.size(); ++c) {
      if (!w.col_alive[c]) {
        continue;
      }
      if (w.lower[c] > w.upper[c] + kFixTolerance) {
        out.infeasible_ = true;
        break;
      }
      if (w.upper[c] - w.lower[c] <= kFixTolerance) {
        w.col_alive[c] = false;
        fixed_any = true;
      }
    }
    if (out.infeasible_) {
      break;
    }
    if (fixed_any) {
      // Live rows hold no column fixed in an earlier round, so every dead
      // column met here was fixed just now. Substitute its value in the
      // row's ascending column order and compact the survivors.
      changed = true;
      for (std::size_t r = 0; r < w.rows.size(); ++r) {
        if (!w.row_alive[r]) {
          continue;
        }
        auto& terms = w.rows[r];
        std::size_t kept = 0;
        for (const Term& t : terms) {
          const std::size_t c = static_cast<std::size_t>(t.first);
          if (w.col_alive[c]) {
            terms[kept++] = t;
          } else {
            w.rhs[r] -= t.second * w.lower[c];
          }
        }
        terms.resize(kept);
      }
    }

    // -- empty and singleton rows ---------------------------------------------
    for (std::size_t r = 0; r < w.rows.size(); ++r) {
      if (!w.row_alive[r]) {
        continue;
      }
      const auto& terms = w.rows[r];
      if (terms.empty()) {
        // 0 (sense) rhs: either trivially true or infeasible.
        const double b = w.rhs[r];
        const bool ok = (w.senses[r] == RowSense::LessEqual && 0.0 <= b + kFeasTolerance) ||
                        (w.senses[r] == RowSense::GreaterEqual && 0.0 >= b - kFeasTolerance) ||
                        (w.senses[r] == RowSense::Equal && std::abs(b) <= kFeasTolerance);
        if (!ok) {
          out.infeasible_ = true;
          break;
        }
        w.row_alive[r] = false;
        changed = true;
        continue;
      }
      if (terms.size() == 1) {
        // a * x (sense) b  ->  bound tightening on x.
        const auto [col, coef] = terms[0];
        const std::size_t c = static_cast<std::size_t>(col);
        if (std::abs(coef) <= kFixTolerance) {
          continue;  // treat as (nearly) empty next round after cleanup
        }
        const double bound = w.rhs[r] / coef;
        RowSense sense = w.senses[r];
        if (coef < 0.0 && sense != RowSense::Equal) {
          sense = sense == RowSense::LessEqual ? RowSense::GreaterEqual
                                               : RowSense::LessEqual;
        }
        switch (sense) {
          case RowSense::LessEqual:
            w.upper[c] = std::min(w.upper[c], bound);
            break;
          case RowSense::GreaterEqual:
            w.lower[c] = std::max(w.lower[c], bound);
            break;
          case RowSense::Equal:
            w.lower[c] = std::max(w.lower[c], bound);
            w.upper[c] = std::min(w.upper[c], bound);
            break;
        }
        if (w.lower[c] > w.upper[c] + kFixTolerance) {
          out.infeasible_ = true;
          break;
        }
        w.row_alive[r] = false;
        changed = true;
      }
    }
  }

  // -- assemble the reduced model -----------------------------------------------
  out.origins_.resize(w.col_alive.size());
  if (out.infeasible_) {
    return out;
  }
  std::vector<int> reduced_index(w.col_alive.size(), -1);
  for (std::size_t c = 0; c < w.col_alive.size(); ++c) {
    if (w.col_alive[c]) {
      reduced_index[c] = out.reduced_.add_variable(w.lower[c], w.upper[c], w.objective[c]);
      out.origins_[c] = Presolved::ColumnOrigin{false, 0.0, reduced_index[c]};
    } else {
      out.origins_[c] = Presolved::ColumnOrigin{true, w.lower[c], -1};
      ++out.removed_columns_;
    }
  }
  for (std::size_t r = 0; r < w.rows.size(); ++r) {
    if (!w.row_alive[r]) {
      ++out.removed_rows_;
      continue;
    }
    // Surviving columns keep their relative order, so the renumbered row
    // stays sorted.
    for (Term& t : w.rows[r]) {
      t.first = reduced_index[static_cast<std::size_t>(t.first)];
    }
    out.reduced_.add_constraint(std::move(w.rows[r]), w.senses[r], w.rhs[r]);
  }
  return out;
}

}  // namespace cohls::lp
