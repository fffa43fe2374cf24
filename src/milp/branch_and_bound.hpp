// Exact branch-and-bound MILP solver over the bounded revised simplex.
// Substitutes for the paper's Gurobi dependency: exact on the small
// per-layer models, with node / pivot / time limits so the synthesizer can
// fall back to its heuristic when a layer is too large. The search has one
// configuration: root presolve, warm dual re-solves at child nodes, and
// pseudocost branching that scores a column by fractionality until both of
// its branching sides have history. Its tolerances are fixed; MilpOptions
// carries budgets, the warm start, the bound provider and the cancellation
// token.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "milp/model.hpp"
#include "util/cancellation.hpp"

namespace cohls::milp {

class NodeBoundProvider;

enum class MilpStatus {
  Optimal,     ///< proven optimal incumbent
  Feasible,    ///< an incumbent exists but the search hit a limit
  Infeasible,  ///< no integral solution exists
  NoSolution,  ///< search hit a limit before finding any incumbent
};

[[nodiscard]] std::string to_string(MilpStatus status);

struct MilpOptions {
  /// Maximum branch-and-bound nodes (LP solves); <= 0 means unlimited.
  long max_nodes = 200000;
  /// The search runs on the calling thread alone. Only values <= 1 are
  /// accepted: solve_milp rejects larger ones with a precondition error.
  int threads = 1;
  /// Wall-clock budget in seconds; <= 0 means unlimited. A solve that hits
  /// it depends on host speed and load; prefer max_pivots.
  double time_limit_seconds = 0.0;
  /// Work budget: cumulative simplex pivots (primal + dual, root and node
  /// solves alike); <= 0 means unlimited. Polled between nodes, with the
  /// deadline, so a search overshoots it by at most one LP solve, and the
  /// same input stops at the same point on every host.
  long max_pivots = 0;
  /// Optional known-feasible point used as the initial incumbent.
  std::optional<std::vector<double>> warm_start;
  /// Try rounding fractional LP relaxations into incumbents.
  bool enable_rounding_heuristic = true;
  /// Optional combinatorial node-bound provider (see milp/bounds.hpp). When
  /// set, every node evaluates the provider against its effective variable
  /// bounds (in ORIGINAL model space) before its LP relaxation; the node
  /// prunes without an LP solve when the combinatorial bound already meets
  /// the incumbent, and otherwise the node bound is the max of the two.
  std::shared_ptr<const NodeBoundProvider> bounds;
  /// Cooperative cancellation: polled between nodes, like the wall-clock and
  /// pivot budgets. A cancelled solve returns like a limit-hit one (Feasible
  /// with the incumbent so far, or NoSolution) with `milp_cancelled` set in
  /// the solution.
  CancellationToken cancel{};
};

/// The search-work counters of one solve. They are declared here once:
/// MilpSolution carries them, and so do the synthesis flow's per-layer
/// outcome and solve event (core::LayerOutcome, core::LayerSolveEvent), which
/// copy them with one assignment. A new counter is one field in this struct.
struct MilpStats {
  long milp_nodes = 0;  ///< branch-and-bound nodes expanded
  /// The search stopped because MilpOptions::cancel fired. A cancelled layer
  /// outcome is still usable but must not be cached: a fresh solve could
  /// return something better.
  bool milp_cancelled = false;

  // LP work performed across all node relaxations.
  long lp_pivots = 0;            ///< simplex pivots (primal + dual)
  long lp_warm_solves = 0;       ///< node re-solves warm-started from a parent basis
  long lp_cold_solves = 0;       ///< from-scratch two-phase solves
  long lp_refactorizations = 0;  ///< basis refactorizations

  // Bound-driven search summary.
  long milp_bound_prunes = 0;    ///< nodes pruned by the combinatorial bound, no LP solve
  long milp_cutoff_prunes = 0;   ///< node LPs cut off early by the dual objective cutoff
  /// Always 0: the search has no root dive. Kept until the benchmark
  /// harness, which still reports it, drops the field.
  long milp_dive_lp_solves = 0;
};

struct MilpSolution : MilpStats {
  MilpStatus status = MilpStatus::NoSolution;
  double objective = 0.0;
  std::vector<double> values;  ///< incumbent when status is Optimal/Feasible
  double best_bound = -kBigBound;

  static constexpr double kBigBound = 1e100;
};

/// Solves `model` (a minimization) exactly, up to the configured limits.
[[nodiscard]] MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options = {});

}  // namespace cohls::milp
