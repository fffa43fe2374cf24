#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "lp/presolve.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/bounds.hpp"
#include "milp/dive.hpp"
#include "util/check.hpp"

namespace cohls::milp {

std::string to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::Optimal: return "Optimal";
    case MilpStatus::Feasible: return "Feasible";
    case MilpStatus::Infeasible: return "Infeasible";
    case MilpStatus::NoSolution: return "NoSolution";
  }
  return "Unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// One bound tightening on the branch path. Children share their parent's
/// suffix, so a node's bounds are O(depth) deltas instead of the O(n)
/// lower/upper vector copies the solver used to carry per node. The stored
/// bounds are absolute (already intersected with everything above them on
/// the path), so replaying root-to-leaf in order reproduces the node's
/// effective bounds exactly. The shared_ptr spine keeps a path alive while
/// any node below it is still on the stack.
struct PathStep {
  lp::Col col = -1;
  double lower = 0.0;
  double upper = 0.0;
  std::shared_ptr<const PathStep> parent;
};

struct Node {
  std::shared_ptr<const PathStep> path;    ///< bound deltas from the root
  std::shared_ptr<const lp::Basis> basis;  ///< parent's optimal basis, if any
  double parent_bound = 0.0;  ///< parent's node bound, for pruning before solving
  // Branching metadata for pseudocost learning: which column the parent
  // branched on to create this node, the column's fractional part at the
  // parent's relaxation, and which side this child is.
  lp::Col branch_col = -1;
  double branch_frac = 0.0;
  bool branch_up = false;
};

struct BoundUndo {
  lp::Col col;
  double lower;
  double upper;
};

class Solver {
 public:
  Solver(const MilpModel& model, const MilpOptions& options)
      : model_(model), options_(options), deadline_set_(options.time_limit_seconds > 0) {
    COHLS_EXPECT(options.threads <= 1, "the branch and bound runs on one thread");
    if (deadline_set_) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(options.time_limit_seconds));
    }
  }

  MilpSolution run() {
    if (!prepare()) {
      MilpSolution out;
      out.status = MilpStatus::Infeasible;
      return out;
    }
    seed_warm_start();
    return search();
  }

 private:
  // --- the search loop ------------------------------------------------------

  /// Depth-first search from the root: the newest node is expanded next, so
  /// the first child usually re-solves against an unchanged factorization.
  MilpSolution search() {
    stack_.push_back(Node{nullptr, nullptr, -MilpSolution::kBigBound});
    while (!stop_ && !stack_.empty()) {
      Node node = std::move(stack_.back());
      stack_.pop_back();
      process_node(node);
    }

    MilpSolution out;
    static_cast<MilpStats&>(out) = stats_;
    const lp::SolveStats& lp = revised_->total_stats();
    out.lp_pivots = pivots();
    out.lp_warm_solves = lp.warm_solves;
    out.lp_cold_solves = lp.cold_solves;
    out.lp_refactorizations = lp.refactorizations;
    finish(out);
    return out;
  }

  /// Stops the search with the tree unfinished.
  void halt() {
    exhausted_ = false;
    stop_ = true;
  }

  /// The budget check every search phase polls — between nodes and before
  /// every root-dive re-solve: a fired cancellation token, the wall-clock
  /// deadline or the spent pivot budget halts the search.
  bool out_of_budget() {
    if (options_.cancel.can_cancel() && options_.cancel.cancelled()) {
      stats_.milp_cancelled = true;
      halt();
      return true;
    }
    const bool out_of_time = deadline_set_ && Clock::now() >= deadline_;
    if (out_of_time || (options_.max_pivots > 0 && pivots() >= options_.max_pivots)) {
      halt();
      return true;
    }
    return false;
  }

  /// Simplex pivots spent so far, over every LP solve of this search.
  long pivots() const {
    const lp::SolveStats& lp = revised_->total_stats();
    return lp.primal_pivots + lp.dual_pivots;
  }

  /// True when the incumbent already meets `bound`.
  bool incumbent_meets(double bound) const {
    return has_incumbent_ && bound >= incumbent_value_ - options_.absolute_gap;
  }

  /// Expands one node: prune it, solve its relaxation, offer incumbents and
  /// push its children onto the stack.
  void process_node(const Node& node) {
    if (out_of_budget()) {
      return;
    }
    if (incumbent_meets(node.parent_bound)) {
      return;  // cannot improve on the incumbent
    }
    if (options_.max_nodes > 0 && stats_.milp_nodes >= options_.max_nodes) {
      halt();
      return;
    }
    ++stats_.milp_nodes;

    const bool at_root = node.path == nullptr;
    apply_path(node.path);

    // Combinatorial bound first: it needs no LP solve, so a near-root node
    // it prunes costs almost nothing.
    const double comb = combinatorial_bound();
    if (comb == std::numeric_limits<double>::infinity()) {
      ++stats_.milp_bound_prunes;
      if (at_root) {
        root_infeasible_ = true;
      }
      undo_path();
      return;
    }
    if (incumbent_meets(comb)) {
      ++stats_.milp_bound_prunes;
      undo_path();
      return;
    }
    if (at_root) {
      root_bound_ = std::max(-MilpSolution::kBigBound, comb);  // kept if the root LP stops early
    }

    set_lp_cutoff(at_root);
    const lp::LpSolution relax = solve_node(node);
    if (relax.status == lp::LpStatus::CutoffReached) {
      // The dual objective is a valid lower bound, so this is an exact
      // prune — and still a usable pseudocost observation.
      update_pseudocost(node, relax.objective);
      ++stats_.milp_cutoff_prunes;
      undo_path();
      return;
    }
    if (relax.status == lp::LpStatus::Infeasible) {
      if (at_root) {
        root_infeasible_ = true;
      }
      undo_path();
      return;
    }
    if (relax.status != lp::LpStatus::Optimal) {
      // Unbounded ray (free continuous directions) or iteration limit: the
      // bound is unknown, so the node cannot be pruned or closed.
      exhausted_ = false;
      undo_path();
      return;
    }
    any_lp_solved_ = true;
    update_pseudocost(node, relax.objective);
    const double bound = std::max(relax.objective, comb);
    if (at_root) {
      root_bound_ = bound;
    }
    if (incumbent_meets(bound)) {
      undo_path();
      return;
    }

    const int branch_col = select_branch(relax.values);
    if (branch_col < 0) {
      offer(relax.values, /*tolerance=*/1e-5);  // integral
      undo_path();
      return;
    }
    if (options_.enable_rounding_heuristic) {
      offer(relax.values, options_.integrality_tolerance);
    }

    // Children re-solve from this node's optimal basis with the dual simplex
    // after the single branching-bound change. Snapshot it before the root
    // dive below re-solves (and re-bases) the LP.
    const auto child_basis = std::make_shared<const lp::Basis>(revised_->basis());
    if (at_root && options_.dive) {
      run_root_dive(relax);
      if (incumbent_meets(bound)) {
        undo_path();
        return;  // the dive's incumbent already matches the root bound
      }
    }
    const std::size_t bc = static_cast<std::size_t>(branch_col);
    const double value = relax.values[bc];
    const double floor_value = std::floor(value);
    const double frac = value - floor_value;
    const double down_hi = std::min(cur_upper_[bc], floor_value);
    const double up_lo = std::max(cur_lower_[bc], floor_value + 1.0);
    Node down{std::make_shared<PathStep>(PathStep{branch_col, cur_lower_[bc], down_hi, node.path}),
              child_basis, bound, branch_col, frac, false};
    Node up{std::make_shared<PathStep>(PathStep{branch_col, up_lo, cur_upper_[bc], node.path}),
            child_basis, bound, branch_col, frac, true};
    const bool down_viable = cur_lower_[bc] <= down_hi;
    const bool up_viable = up_lo <= cur_upper_[bc];
    undo_path();
    // Depth-first; explore the child nearer the fractional value first
    // (push it last so it pops first).
    const bool up_first = frac > 0.5;
    if (down_viable && !up_first) {
      stack_.push_back(std::move(down));
    }
    if (up_viable) {
      stack_.push_back(std::move(up));
    }
    if (down_viable && up_first) {
      stack_.push_back(std::move(down));
    }
  }

  /// Snaps integer columns, validates feasibility and offers the point as
  /// the incumbent. Strictly worse offers are rejected before the
  /// feasibility check; at equal objective the lexicographically smaller
  /// vector wins, so a tie never depends on which point was found first.
  void offer(const std::vector<double>& x, double tolerance) {
    std::vector<double> snapped = x;
    for (lp::Col c = 0; c < reduced_.variable_count(); ++c) {
      if (reduced_.is_integer(c)) {
        snapped[static_cast<std::size_t>(c)] =
            std::round(snapped[static_cast<std::size_t>(c)]);
      }
    }
    const double value = reduced_.lp().objective_value(snapped);
    constexpr double kTie = 1e-12;
    if (has_incumbent_ && value > incumbent_value_ + kTie) {
      return;
    }
    if (!reduced_.is_feasible(snapped, tolerance)) {
      return;
    }
    if (has_incumbent_ && value >= incumbent_value_ - kTie &&
        !std::lexicographical_compare(snapped.begin(), snapped.end(), incumbent_.begin(),
                                      incumbent_.end())) {
      return;
    }
    incumbent_value_ = has_incumbent_ ? std::min(value, incumbent_value_) : value;
    incumbent_ = std::move(snapped);
    has_incumbent_ = true;
  }

  // --- setup and node bookkeeping -------------------------------------------

  /// Presolves the model, adopts the reduced LP as the reduced-space MILP
  /// and builds the node LP solver. Returns false when presolve alone
  /// proves infeasibility (which includes an integer column fixed to a
  /// fractional value).
  bool prepare() {
    pre_ = lp::presolve(model_.lp());
    if (pre_.infeasible()) {
      return false;
    }
    for (lp::Col c = 0; c < model_.variable_count(); ++c) {
      if (!model_.is_integer(c) || !pre_.column_fixed(c)) {
        continue;
      }
      const double v = pre_.fixed_value(c);
      if (std::abs(v - std::round(v)) > options_.integrality_tolerance) {
        return false;  // integer column pinned to a fractional value
      }
    }
    reduced_ = MilpModel(pre_.take_model());
    for (lp::Col c = 0; c < model_.variable_count(); ++c) {
      if (pre_.column_fixed(c)) {
        objective_offset_ += model_.lp().objective_coefficient(c) * pre_.fixed_value(c);
      } else {
        reduced_.set_kind(pre_.reduced_column(c), model_.kind(c));
      }
    }

    const int n = reduced_.variable_count();
    const std::size_t ns = static_cast<std::size_t>(n);
    long integer_columns = 0;
    cur_lower_.resize(ns);
    cur_upper_.resize(ns);
    for (lp::Col c = 0; c < n; ++c) {
      cur_lower_[static_cast<std::size_t>(c)] = reduced_.lp().lower_bound(c);
      cur_upper_[static_cast<std::size_t>(c)] = reduced_.lp().upper_bound(c);
      if (reduced_.is_integer(c)) {
        ++integer_columns;
      }
    }
    // Two solves per dive level (fix + one backtrack flip), depth at most
    // the integer-column count, plus slack for re-fractionalizations.
    dive_budget_ = 2 * integer_columns + 8;
    pc_down_sum_.assign(ns, 0.0);
    pc_up_sum_.assign(ns, 0.0);
    pc_down_count_.assign(ns, 0);
    pc_up_count_.assign(ns, 0);

    if (options_.bounds != nullptr) {
      orig_of_reduced_.assign(ns, -1);
      const std::size_t on = static_cast<std::size_t>(model_.variable_count());
      orig_lower_.resize(on);
      orig_upper_.resize(on);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        const std::size_t cs = static_cast<std::size_t>(c);
        if (pre_.column_fixed(c)) {
          orig_lower_[cs] = pre_.fixed_value(c);
          orig_upper_[cs] = pre_.fixed_value(c);
        } else {
          const lp::Col rc = pre_.reduced_column(c);
          orig_of_reduced_[static_cast<std::size_t>(rc)] = c;
          orig_lower_[cs] = reduced_.lp().lower_bound(rc);
          orig_upper_[cs] = reduced_.lp().upper_bound(rc);
        }
      }
    }
    revised_.emplace(reduced_.lp(), options_.simplex);
    return true;
  }

  /// Maps MilpOptions::warm_start (original space) onto the reduced model.
  void seed_warm_start() {
    if (!options_.warm_start.has_value()) {
      return;
    }
    COHLS_EXPECT(static_cast<int>(options_.warm_start->size()) == model_.variable_count(),
                 "warm start arity must match the model");
    if (!model_.is_feasible(*options_.warm_start, options_.integrality_tolerance)) {
      return;
    }
    std::vector<double> mapped(static_cast<std::size_t>(reduced_.variable_count()));
    for (lp::Col c = 0; c < model_.variable_count(); ++c) {
      const int rc = pre_.reduced_column(c);
      if (rc >= 0) {
        mapped[static_cast<std::size_t>(rc)] =
            (*options_.warm_start)[static_cast<std::size_t>(c)];
      }
    }
    if (reduced_.is_feasible(mapped, options_.integrality_tolerance)) {
      incumbent_value_ = reduced_.lp().objective_value(mapped);
      incumbent_ = std::move(mapped);
      has_incumbent_ = true;
    }
  }

  /// Replays the node's branch path onto the effective-bound arrays and the
  /// node LP, recording undo entries.
  void apply_path(const std::shared_ptr<const PathStep>& path) {
    path_buffer_.clear();
    for (const PathStep* step = path.get(); step != nullptr; step = step->parent.get()) {
      path_buffer_.push_back(step);
    }
    for (auto it = path_buffer_.rbegin(); it != path_buffer_.rend(); ++it) {
      const PathStep* step = *it;
      const std::size_t c = static_cast<std::size_t>(step->col);
      undo_stack_.push_back({step->col, cur_lower_[c], cur_upper_[c]});
      set_node_bounds(step->col, step->lower, step->upper);
    }
  }

  void undo_path() {
    for (auto it = undo_stack_.rbegin(); it != undo_stack_.rend(); ++it) {
      set_node_bounds(it->col, it->lower, it->upper);
    }
    undo_stack_.clear();
  }

  void set_node_bounds(lp::Col c, double lower, double upper) {
    const std::size_t j = static_cast<std::size_t>(c);
    cur_lower_[j] = lower;
    cur_upper_[j] = upper;
    if (!orig_lower_.empty()) {
      // Reduced-column bounds are the original column's effective bounds
      // (presolve only removes columns, it never rescales the survivors),
      // so the mirror takes the same values at the mapped index.
      const std::size_t oc = static_cast<std::size_t>(orig_of_reduced_[j]);
      orig_lower_[oc] = lower;
      orig_upper_[oc] = upper;
    }
    revised_->set_bounds(c, lower, upper);
  }

  lp::LpSolution solve_node(const Node& node) {
    if (node.basis != nullptr && !node.basis->empty()) {
      return revised_->solve_from(*node.basis);
    }
    return revised_->solve();
  }

  /// The node's combinatorial lower bound in reduced space (comparable with
  /// the incumbent value): the provider's original-space bound minus the
  /// objective mass on presolve-fixed columns. -infinity when no provider is
  /// configured; +infinity when the provider proves the node box empty.
  double combinatorial_bound() const {
    if (options_.bounds == nullptr) {
      return -std::numeric_limits<double>::infinity();
    }
    const double cb = options_.bounds->objective_lower_bound(orig_lower_, orig_upper_);
    if (cb == std::numeric_limits<double>::infinity()) {
      return cb;
    }
    return cb - objective_offset_;
  }

  /// Arms the dual-simplex objective cutoff for the next warm re-solve. Only
  /// active in bound-driven mode (a provider is attached): the cutoff skips
  /// the pruned node's rounding-heuristic pass, which is a trajectory change
  /// we keep out of the plain configuration. Off at the root so the root
  /// bound is always exact.
  void set_lp_cutoff(bool at_root) {
    if (options_.bounds == nullptr) {
      return;
    }
    const double incumbent =
        has_incumbent_ ? incumbent_value_ : std::numeric_limits<double>::infinity();
    const double cutoff = at_root ? std::numeric_limits<double>::infinity()
                                  : incumbent - options_.absolute_gap;
    revised_->set_objective_cutoff(cutoff);
  }

  /// Variable selection: pseudocost branching scores a fractional column by
  /// the product of its estimated up/down bound degradations; a column with
  /// no history on either side is "unreliable" and the rule falls back to
  /// most-fractional among the unreliable ones, which is exactly what
  /// initializes the pseudocosts. Returns -1 when the point is integral.
  int select_branch(const std::vector<double>& x) const {
    int best_unreliable = -1;
    double best_unreliable_frac = options_.integrality_tolerance;
    int best_reliable = -1;
    double best_score = -1.0;
    for (lp::Col c = 0; c < reduced_.variable_count(); ++c) {
      if (!reduced_.is_integer(c)) {
        continue;
      }
      const std::size_t j = static_cast<std::size_t>(c);
      const double v = x[j];
      const double frac = std::abs(v - std::round(v));
      if (frac <= options_.integrality_tolerance) {
        continue;
      }
      const double f = v - std::floor(v);
      if (pc_down_count_[j] == 0 || pc_up_count_[j] == 0) {
        if (frac > best_unreliable_frac) {
          best_unreliable_frac = frac;
          best_unreliable = c;
        }
      } else {
        const double down = pc_down_sum_[j] / static_cast<double>(pc_down_count_[j]) * f;
        const double up = pc_up_sum_[j] / static_cast<double>(pc_up_count_[j]) * (1.0 - f);
        const double score = std::max(down, 1e-6) * std::max(up, 1e-6);
        if (score > best_score) {
          best_score = score;
          best_reliable = c;
        }
      }
    }
    return best_unreliable >= 0 ? best_unreliable : best_reliable;
  }

  /// Records the observed bound degradation of a child relative to its
  /// parent, normalized per unit of fractionality, on the branched column.
  void update_pseudocost(const Node& node, double child_bound) {
    if (node.branch_col < 0 || node.parent_bound <= -MilpSolution::kBigBound) {
      return;
    }
    const double denom = node.branch_up ? 1.0 - node.branch_frac : node.branch_frac;
    if (denom < 1e-9) {
      return;
    }
    const double gain = std::max(0.0, child_bound - node.parent_bound) / denom;
    const std::size_t j = static_cast<std::size_t>(node.branch_col);
    if (node.branch_up) {
      pc_up_sum_[j] += gain;
      ++pc_up_count_[j];
    } else {
      pc_down_sum_[j] += gain;
      ++pc_down_count_[j];
    }
  }

  /// The root dive (see milp/dive.hpp): fixes its way down from the root
  /// relaxation with warm re-solves, offers any integral point it reaches as
  /// an incumbent, and restores every bound it touched. It polls the same
  /// budget check as the node loop before every re-solve. LP work lands in
  /// the dive counters, never in the node budget.
  void run_root_dive(const lp::LpSolution& root_relax) {
    std::vector<BoundUndo> undo;
    lp::Basis dive_basis = revised_->basis();
    DiveHooks hooks;
    hooks.lower = &cur_lower_;
    hooks.upper = &cur_upper_;
    hooks.set_bounds = [this, &undo](lp::Col c, double lo, double hi) {
      const std::size_t j = static_cast<std::size_t>(c);
      undo.push_back({c, cur_lower_[j], cur_upper_[j]});
      set_node_bounds(c, lo, hi);
    };
    hooks.resolve = [this, &dive_basis]() {
      lp::LpSolution sol = revised_->solve_from(dive_basis);
      if (sol.status == lp::LpStatus::Optimal) {
        dive_basis = revised_->basis();
      }
      return sol;
    };
    hooks.stop = [this] { return out_of_budget(); };
    const DiveResult result =
        dive_for_incumbent(reduced_, hooks, root_relax,
                           options_.integrality_tolerance,
                           /*feasibility_tolerance=*/1e-5, dive_budget_);
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      set_node_bounds(it->col, it->lower, it->upper);
    }
    stats_.milp_dive_lp_solves += result.lp_solves;
    if (result.found) {
      stats_.milp_dive_found_incumbent = true;
      offer(result.values, /*tolerance=*/1e-5);
    }
  }

  /// The common epilogue: best bound, incumbent restoration and status.
  void finish(MilpSolution& out) {
    if (has_incumbent_) {
      std::vector<double> full = pre_.restore(incumbent_);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        if (model_.is_integer(c)) {
          full[static_cast<std::size_t>(c)] = std::round(full[static_cast<std::size_t>(c)]);
        }
      }
      out.values = std::move(full);
      out.objective = model_.lp().objective_value(out.values);
      out.status = exhausted_ ? MilpStatus::Optimal : MilpStatus::Feasible;
      out.best_bound = exhausted_ ? out.objective : root_bound_ + objective_offset_;
    } else {
      out.best_bound = root_bound_ + objective_offset_;
      const bool proven = any_lp_solved_ || root_infeasible_ || out.milp_nodes > 0;
      out.status = exhausted_ && proven ? MilpStatus::Infeasible : MilpStatus::NoSolution;
    }
  }

  const MilpModel& model_;
  const MilpOptions& options_;
  lp::Presolved pre_;
  MilpModel reduced_;  ///< presolved model the search actually branches over
  double objective_offset_ = 0.0;  ///< objective mass on presolve-fixed columns
  bool deadline_set_;
  Clock::time_point deadline_{};
  long dive_budget_ = 0;

  // Node LP and the effective bounds of the node being solved.
  std::optional<lp::RevisedSimplex> revised_;
  std::vector<double> cur_lower_;
  std::vector<double> cur_upper_;
  std::vector<const PathStep*> path_buffer_;
  std::vector<BoundUndo> undo_stack_;
  /// ORIGINAL-space mirror of the node box, maintained alongside cur_lower_ /
  /// cur_upper_ when a NodeBoundProvider is attached (the provider's contract
  /// is original model space; presolve-fixed columns sit collapsed at their
  /// fixed value). Empty when no provider is configured.
  std::vector<double> orig_lower_;
  std::vector<double> orig_upper_;
  std::vector<lp::Col> orig_of_reduced_;  ///< original column per reduced column

  /// Pseudocost history: objective degradation per unit of fractionality,
  /// by branching side.
  std::vector<double> pc_down_sum_;
  std::vector<double> pc_up_sum_;
  std::vector<long> pc_down_count_;
  std::vector<long> pc_up_count_;

  // Search state.
  std::vector<Node> stack_;  ///< open nodes; the back is expanded next
  bool has_incumbent_ = false;
  std::vector<double> incumbent_;  ///< reduced space
  double incumbent_value_ = std::numeric_limits<double>::infinity();
  double root_bound_ = -MilpSolution::kBigBound;
  bool stop_ = false;
  bool exhausted_ = true;
  bool root_infeasible_ = false;
  bool any_lp_solved_ = false;
  MilpStats stats_;  ///< node and prune counters; LP counters are read at the end
};

}  // namespace

MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options) {
  Solver solver(model, options);
  return solver.run();
}

}  // namespace cohls::milp
