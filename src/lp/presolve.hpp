// LP presolve: cheap model reductions applied before the simplex. The
// per-layer synthesis models contain many fixed binaries (forbidden
// bindings pinned to zero, sealed configuration variables), empty rows and
// singleton rows; eliminating them shrinks the basis the simplex factors and
// the columns it prices. Branch and bound always presolves at the root.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "lp/model.hpp"

namespace cohls::lp {

/// Outcome of presolving a model.
class Presolved {
 public:
  /// True when presolve alone proved the model infeasible.
  [[nodiscard]] bool infeasible() const { return infeasible_; }

  /// The reduced model (valid only when !infeasible()).
  [[nodiscard]] const LpModel& model() const { return reduced_; }

  /// Moves the reduced model out; model() is empty afterwards. The column
  /// mapping below stays valid.
  [[nodiscard]] LpModel take_model() { return std::move(reduced_); }

  /// Number of columns / rows eliminated.
  [[nodiscard]] int removed_columns() const { return removed_columns_; }
  [[nodiscard]] int removed_rows() const { return removed_rows_; }

  /// Lifts a reduced-space solution back to the original variable space.
  [[nodiscard]] std::vector<double> restore(const std::vector<double>& reduced) const;

  /// Per-column mapping into the reduced model (valid when !infeasible()).
  /// A fixed column was eliminated; its constant is `fixed_value`. A live
  /// column moved to `reduced_column`. Branch and bound uses this to carry
  /// integrality marks and warm starts into the reduced space.
  [[nodiscard]] int original_column_count() const { return static_cast<int>(origins_.size()); }
  [[nodiscard]] bool column_fixed(Col original) const {
    return origins_[check_origin(original)].fixed;
  }
  [[nodiscard]] double fixed_value(Col original) const {
    return origins_[check_origin(original)].value;
  }
  /// Reduced index of a surviving column; -1 when the column was fixed.
  [[nodiscard]] int reduced_column(Col original) const {
    return origins_[check_origin(original)].reduced_index;
  }

 private:
  friend Presolved presolve(const LpModel& original);

  [[nodiscard]] std::size_t check_origin(Col c) const {
    COHLS_EXPECT(c >= 0 && static_cast<std::size_t>(c) < origins_.size(),
                 "original column index out of range");
    return static_cast<std::size_t>(c);
  }

  LpModel reduced_;
  bool infeasible_ = false;
  int removed_columns_ = 0;
  int removed_rows_ = 0;
  /// Original value per original column: either a fixed constant, or the
  /// index of the reduced column holding it.
  struct ColumnOrigin {
    bool fixed = false;
    double value = 0.0;  // when fixed
    int reduced_index = -1;
  };
  std::vector<ColumnOrigin> origins_;
};

/// Applies, to a fixpoint: removal of fixed columns (lb == ub, substituted
/// into rows), empty rows (dropped or proven infeasible) and singleton rows
/// (turned into bound tightenings, which may fix further columns).
[[nodiscard]] Presolved presolve(const LpModel& original);

}  // namespace cohls::lp
