// Mixed-integer model: an LpModel plus integrality marks. The per-layer
// synthesis model of the paper (Sec. 4) instantiates this with binary
// device-configuration / binding / disjunction variables and integer start
// times.
#pragma once

#include <utility>
#include <vector>

#include "lp/model.hpp"

namespace cohls::milp {

enum class VarKind {
  Continuous,
  Integer,
  Binary,  ///< integer in [0, 1]
};

/// A minimization MILP. Wraps LpModel and records which columns must take
/// integral values.
class MilpModel {
 public:
  MilpModel() = default;

  /// Adopts `lp` with every column Continuous; set_kind marks the integer
  /// ones.
  explicit MilpModel(lp::LpModel lp)
      : lp_(std::move(lp)),
        kinds_(static_cast<std::size_t>(lp_.variable_count()), VarKind::Continuous) {}

  lp::Col add_variable(VarKind kind, double lower, double upper, double objective);

  /// Convenience: a {0,1} variable.
  lp::Col add_binary(double objective) {
    return add_variable(VarKind::Binary, 0.0, 1.0, objective);
  }

  lp::Row add_constraint(std::vector<lp::Term> terms, lp::RowSense sense, double rhs) {
    return lp_.add_constraint(std::move(terms), sense, rhs);
  }

  [[nodiscard]] const lp::LpModel& lp() const { return lp_; }
  [[nodiscard]] lp::LpModel& lp() { return lp_; }

  [[nodiscard]] bool is_integer(lp::Col c) const {
    return kinds_[static_cast<std::size_t>(c)] != VarKind::Continuous;
  }
  [[nodiscard]] VarKind kind(lp::Col c) const { return kinds_[static_cast<std::size_t>(c)]; }

  /// Reclassifies an existing column. Used when adopting a presolved LP as
  /// the reduced MILP, where bounds may already be tighter than the
  /// canonical {0, 1} box add_variable enforces for binaries.
  void set_kind(lp::Col c, VarKind kind) { kinds_[static_cast<std::size_t>(c)] = kind; }
  [[nodiscard]] int variable_count() const { return lp_.variable_count(); }
  [[nodiscard]] int constraint_count() const { return lp_.constraint_count(); }

  /// True when `x` is row/bound feasible and integral on integer columns.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tolerance = 1e-6) const;

 private:
  lp::LpModel lp_;
  std::vector<VarKind> kinds_;
};

}  // namespace cohls::milp
