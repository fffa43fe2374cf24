// Sparse revised simplex with native variable bounds. The constraint matrix
// is stored once in compressed-sparse-column form; the basis inverse is kept
// as a dense refactorized inverse plus a product-form eta file, refactorized
// periodically. Pricing walks sparse columns instead of O(rows x cols)
// tableau sweeps, and a bounded-variable dual simplex entry point re-solves
// from a caller-supplied starting basis —
// the branch-and-bound MILP warm-starts every child node from its parent's
// optimal basis after a single branching bound change.
#pragma once

#include <memory>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace cohls::lp {

/// Status of one column (structural or logical) in a basis snapshot.
enum class BasisStatus : unsigned char {
  AtLower,  ///< nonbasic at its (finite) lower bound
  AtUpper,  ///< nonbasic at its (finite) upper bound
  Basic,
  Free,  ///< nonbasic free variable resting at zero
};

/// A resumable basis: which column sits in each basis slot plus a status for
/// every column (structural columns first, then one logical per row). A
/// default-constructed basis is "empty" and means "start cold".
struct Basis {
  std::vector<int> basic;               ///< size = rows; column per basis slot
  std::vector<BasisStatus> status;      ///< size = structural + logical columns
  [[nodiscard]] bool empty() const { return basic.empty() && status.empty(); }
};

/// Work counters for one solve (and accumulated across solves).
struct SolveStats {
  long primal_pivots = 0;
  long dual_pivots = 0;
  long refactorizations = 0;
  long warm_solves = 0;       ///< solves that started from a supplied basis
  long warm_degraded = 0;     ///< warm solves that fell back to a cold solve
  long cold_solves = 0;

  void accumulate(const SolveStats& other) {
    primal_pivots += other.primal_pivots;
    dual_pivots += other.dual_pivots;
    refactorizations += other.refactorizations;
    warm_solves += other.warm_solves;
    warm_degraded += other.warm_degraded;
    cold_solves += other.cold_solves;
  }
};

/// A reusable revised-simplex instance. The sparse matrix is built once from
/// the model; variable bounds may then be mutated between solves (branch and
/// bound tightens one bound per node) without rebuilding anything else.
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LpModel& model);
  ~RevisedSimplex();
  RevisedSimplex(RevisedSimplex&&) noexcept;
  RevisedSimplex& operator=(RevisedSimplex&&) noexcept;

  /// Overrides the bounds of a structural variable for subsequent solves.
  /// (The LpModel passed to the constructor is not modified.)
  void set_bounds(Col c, double lower, double upper);

  /// Objective cutoff for warm (dual) re-solves: a dual iteration whose
  /// objective — a monotonically nondecreasing lower bound on the LP
  /// optimum — reaches `cutoff` stops immediately with
  /// LpStatus::CutoffReached instead of solving to optimality. Sticky until
  /// changed; +infinity (the default) disables it. Cold primal solves
  /// ignore the cutoff.
  void set_objective_cutoff(double cutoff);

  /// Cold solve: bounded-variable primal simplex, phase 1 from the all-
  /// logical basis, then phase 2.
  [[nodiscard]] LpSolution solve();

  /// Warm solve: installs `start` and re-solves with the bounded-variable
  /// dual simplex (the basis of an optimal parent stays dual feasible after
  /// bound tightenings, so typically only a handful of dual pivots run).
  /// Falls back to a cold primal solve when the basis cannot be installed or
  /// the dual iteration hits its limit; the result is always as trustworthy
  /// as solve().
  [[nodiscard]] LpSolution solve_from(const Basis& start);

  /// Basis at the end of the last Optimal solve (empty otherwise).
  [[nodiscard]] const Basis& basis() const;

  /// Counters for the most recent solve / across all solves so far.
  [[nodiscard]] const SolveStats& last_stats() const;
  [[nodiscard]] const SolveStats& total_stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cohls::lp
