#include "milp/branch_and_bound.hpp"

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
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
/// effective bounds exactly. The shared_ptr spine is refcounted, so a
/// subtree stolen by another worker keeps its path alive no matter when the
/// victim pops (and drops) its own nodes.
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

/// Everything one search thread needs to solve node relaxations: a private
/// LP workspace (revised simplex sharing the immutable CSC matrix), the
/// effective-bound arrays of the node being solved, and the path/undo
/// scratch. Never shared between threads.
struct Workspace {
  std::optional<lp::RevisedSimplex> revised;
  std::vector<double> cur_lower;  ///< effective bounds of the node being solved
  std::vector<double> cur_upper;
  std::vector<const PathStep*> path_buffer;
  std::vector<BoundUndo> undo_stack;

  /// ORIGINAL-space mirror of the node box, maintained alongside cur_lower /
  /// cur_upper when a NodeBoundProvider is attached (the provider's contract
  /// is original model space; presolve-fixed columns sit collapsed at their
  /// fixed value). Empty when no provider is configured.
  std::vector<double> orig_lower;
  std::vector<double> orig_upper;

  /// Per-worker pseudocost history (objective degradation per unit of
  /// fractionality, by branching side). Worker-private so the parallel
  /// search stays lock-free and threads == 1 stays bit-reproducible.
  std::vector<double> pc_down_sum;
  std::vector<double> pc_up_sum;
  std::vector<long> pc_down_count;
  std::vector<long> pc_up_count;
};

/// Per-worker slice of the search result, merged after the join.
struct WorkerReport {
  lp::SolveStats lp{};
  double idle_seconds = 0.0;
};

/// A worker's node deque. The owner pushes and pops at the back (depth
/// first, so the first child usually re-solves against an unchanged
/// factorization); thieves take from the front, which holds the nodes
/// closest to the root — the largest subtrees, amortizing the thief's
/// refactorization over the most work.
struct WorkerDeque {
  util::Mutex mutex;
  std::deque<Node> nodes COHLS_GUARDED_BY(mutex);
};

/// State shared by the worker team: the deques, the incumbent, the global
/// budgets and the outcome flags. Budget counters use relaxed atomics — the
/// queues' mutexes order the node hand-offs; the counters only need
/// eventual agreement, not ordering.
struct SharedSearch {
  explicit SharedSearch(int workers) : queues(static_cast<std::size_t>(workers)) {}

  std::vector<WorkerDeque> queues;
  /// Nodes queued or currently being expanded; the team is done when 0.
  std::atomic<long> open_nodes{0};
  std::atomic<long> nodes{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> exhausted{true};
  std::atomic<bool> root_infeasible{false};
  std::atomic<bool> any_lp_solved{false};

  /// Lock-free mirror of the incumbent value for pruning reads; the value
  /// vector itself (and the authoritative value) live under the mutex.
  std::atomic<bool> has_incumbent{false};
  std::atomic<double> best_value{std::numeric_limits<double>::infinity()};
  util::Mutex incumbent_mutex;
  std::vector<double> incumbent COHLS_GUARDED_BY(incumbent_mutex);  ///< reduced space
  double incumbent_value COHLS_GUARDED_BY(incumbent_mutex) =
      std::numeric_limits<double>::infinity();

  /// Root bound, written only by the worker that expands the root.
  std::atomic<double> root_bound{-MilpSolution::kBigBound};

  std::atomic<long> steals{0};
  std::atomic<long> incumbent_updates{0};
  std::atomic<long> incumbent_races{0};
  std::atomic<long> bound_prunes{0};
  std::atomic<long> cutoff_prunes{0};
  std::atomic<long> dive_lp_solves{0};
  std::atomic<bool> dive_found{false};

  /// First worker exception, rethrown on the calling thread after the join.
  util::Mutex error_mutex;
  std::exception_ptr error COHLS_GUARDED_BY(error_mutex);
};

class Solver {
 public:
  Solver(const MilpModel& model, const MilpOptions& options)
      : model_(model),
        options_(options),
        workers_(std::max(1, options.threads)),
        shared_(workers_),
        deadline_set_(options.time_limit_seconds > 0) {
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

  /// Runs the worker team on the root node: the calling thread is worker 0
  /// and `workers_ - 1` threads are spawned beside it, so a team of one
  /// searches on the calling thread alone.
  MilpSolution search() {
    {
      // No other worker is running yet; the lock exists so the
      // thread-safety analysis sees every guarded access locked.
      util::MutexLock lock(shared_.queues[0].mutex);
      shared_.queues[0].nodes.push_back(Node{nullptr, nullptr, -MilpSolution::kBigBound});
    }
    shared_.open_nodes.store(1, std::memory_order_release);

    std::vector<WorkerReport> reports(static_cast<std::size_t>(workers_));
    std::vector<std::thread> team;
    team.reserve(static_cast<std::size_t>(workers_) - 1);
    for (int t = 1; t < workers_; ++t) {
      team.emplace_back(
          [this, &reports, t] { worker_main(t, reports[static_cast<std::size_t>(t)]); });
    }
    worker_main(0, reports[0]);
    for (std::thread& member : team) {
      member.join();
    }
    {
      // Workers have joined; the lock keeps the analysis exact.
      util::MutexLock lock(shared_.error_mutex);
      if (shared_.error != nullptr) {
        std::rethrow_exception(shared_.error);
      }
    }

    MilpSolution out;
    out.milp_nodes = shared_.nodes.load(std::memory_order_relaxed);
    out.milp_cancelled = shared_.cancelled.load(std::memory_order_relaxed);
    out.milp_threads = workers_;
    out.milp_steals = shared_.steals.load(std::memory_order_relaxed);
    out.milp_incumbent_updates = shared_.incumbent_updates.load(std::memory_order_relaxed);
    out.milp_incumbent_races = shared_.incumbent_races.load(std::memory_order_relaxed);
    out.milp_bound_prunes = shared_.bound_prunes.load(std::memory_order_relaxed);
    out.milp_cutoff_prunes = shared_.cutoff_prunes.load(std::memory_order_relaxed);
    out.milp_dive_lp_solves = shared_.dive_lp_solves.load(std::memory_order_relaxed);
    out.milp_dive_found_incumbent = shared_.dive_found.load(std::memory_order_relaxed);
    lp::SolveStats lp_total;
    for (const WorkerReport& report : reports) {
      out.milp_idle_seconds += report.idle_seconds;
      lp_total.accumulate(report.lp);
    }
    out.lp_pivots = lp_total.primal_pivots + lp_total.dual_pivots;
    out.lp_warm_solves = lp_total.warm_solves;
    out.lp_cold_solves = lp_total.cold_solves;
    out.lp_refactorizations = lp_total.refactorizations;
    finish(out);
    return out;
  }

  void worker_main(int id, WorkerReport& report) {
    try {
      // Worker 0 inherits the root workspace prepare() built (ws_ stays in
      // place: the other workers clone its revised instance concurrently);
      // the rest get private clones sharing the immutable CSC matrix.
      std::optional<Workspace> local;
      if (id != 0) {
        local.emplace(make_worker_workspace());
      }
      Workspace& ws = id == 0 ? ws_ : *local;
      int spins = 0;
      while (!shared_.stop.load(std::memory_order_acquire)) {
        Node node;
        if (!pop_or_steal(id, node)) {
          if (shared_.open_nodes.load(std::memory_order_acquire) == 0) {
            break;  // tree fully explored
          }
          const Clock::time_point idle_begin = Clock::now();
          if (spins < 64) {
            ++spins;
            std::this_thread::yield();
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          report.idle_seconds +=
              std::chrono::duration<double>(Clock::now() - idle_begin).count();
          continue;
        }
        spins = 0;
        process_node(ws, id, node);
        shared_.open_nodes.fetch_sub(1, std::memory_order_acq_rel);
      }
      report.lp = ws.revised->total_stats();
    } catch (...) {
      util::MutexLock lock(shared_.error_mutex);
      if (shared_.error == nullptr) {
        shared_.error = std::current_exception();
      }
      halt();
    }
  }

  /// A fresh workspace for workers 1..N-1, sharing ws_'s immutable CSC
  /// matrix read-only.
  Workspace make_worker_workspace() {
    Workspace ws;
    ws.revised.emplace(ws_.revised->clone_workspace());
    init_workspace(ws);
    return ws;
  }

  bool pop_or_steal(int id, Node& out) {
    WorkerDeque& own = shared_.queues[static_cast<std::size_t>(id)];
    {
      util::MutexLock lock(own.mutex);
      if (!own.nodes.empty()) {
        out = std::move(own.nodes.back());
        own.nodes.pop_back();
        return true;
      }
    }
    const int team = static_cast<int>(shared_.queues.size());
    for (int k = 1; k < team; ++k) {
      WorkerDeque& victim = shared_.queues[static_cast<std::size_t>((id + k) % team)];
      util::MutexLock lock(victim.mutex);
      if (!victim.nodes.empty()) {
        out = std::move(victim.nodes.front());
        victim.nodes.pop_front();
        shared_.steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Stops the whole team with the search unfinished.
  void halt() {
    shared_.exhausted.store(false, std::memory_order_relaxed);
    shared_.stop.store(true, std::memory_order_release);
  }

  /// The budget check every search phase polls — between nodes and before
  /// every root-dive re-solve: a fired cancellation token or the wall-clock
  /// deadline halts the team.
  bool out_of_budget() {
    if (options_.cancel.can_cancel() && options_.cancel.cancelled()) {
      shared_.cancelled.store(true, std::memory_order_relaxed);
      halt();
      return true;
    }
    if (deadline_set_ && Clock::now() >= deadline_) {
      halt();
      return true;
    }
    return false;
  }

  /// True when the shared incumbent already meets `bound`.
  bool incumbent_meets(double bound) const {
    return shared_.has_incumbent.load(std::memory_order_acquire) &&
           bound >= shared_.best_value.load(std::memory_order_relaxed) - options_.absolute_gap;
  }

  /// Expands one node: prune it, solve its relaxation, offer incumbents and
  /// push its children onto worker `id`'s deque.
  void process_node(Workspace& ws, int id, Node& node) {
    if (out_of_budget()) {
      return;
    }
    if (incumbent_meets(node.parent_bound)) {
      return;  // cannot improve on the incumbent
    }
    const long sequence = shared_.nodes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.max_nodes > 0 && sequence > options_.max_nodes) {
      shared_.nodes.fetch_sub(1, std::memory_order_relaxed);
      halt();
      return;
    }

    const bool at_root = node.path == nullptr;
    apply_path(ws, node.path);

    // Combinatorial bound first: it needs no LP solve, so a near-root node
    // it prunes costs almost nothing.
    const double comb = combinatorial_bound(ws);
    if (comb == std::numeric_limits<double>::infinity()) {
      shared_.bound_prunes.fetch_add(1, std::memory_order_relaxed);
      if (at_root) {
        shared_.root_infeasible.store(true, std::memory_order_relaxed);
      }
      undo_path(ws);
      return;
    }
    if (incumbent_meets(comb)) {
      shared_.bound_prunes.fetch_add(1, std::memory_order_relaxed);
      undo_path(ws);
      return;
    }
    if (at_root) {
      // Kept even when the root LP below stops early.
      shared_.root_bound.store(std::max(-MilpSolution::kBigBound, comb),
                               std::memory_order_relaxed);
    }

    set_lp_cutoff(ws, at_root,
                  shared_.has_incumbent.load(std::memory_order_acquire)
                      ? shared_.best_value.load(std::memory_order_relaxed)
                      : std::numeric_limits<double>::infinity());
    const lp::LpSolution relax = solve_node(ws, node);
    if (relax.status == lp::LpStatus::CutoffReached) {
      // The dual objective is a valid lower bound, so this is an exact
      // prune — and still a usable pseudocost observation.
      update_pseudocost(ws, node, relax.objective);
      shared_.cutoff_prunes.fetch_add(1, std::memory_order_relaxed);
      undo_path(ws);
      return;
    }
    if (relax.status == lp::LpStatus::Infeasible) {
      if (at_root) {
        shared_.root_infeasible.store(true, std::memory_order_relaxed);
      }
      undo_path(ws);
      return;
    }
    if (relax.status != lp::LpStatus::Optimal) {
      // Unbounded ray (free continuous directions) or iteration limit: the
      // bound is unknown, so the node cannot be pruned or closed.
      shared_.exhausted.store(false, std::memory_order_relaxed);
      undo_path(ws);
      return;
    }
    shared_.any_lp_solved.store(true, std::memory_order_relaxed);
    update_pseudocost(ws, node, relax.objective);
    const double bound = std::max(relax.objective, comb);
    if (at_root) {
      shared_.root_bound.store(bound, std::memory_order_relaxed);
    }
    if (incumbent_meets(bound)) {
      undo_path(ws);
      return;
    }

    const int branch_col = select_branch(ws, relax.values);
    if (branch_col < 0) {
      offer_shared(relax.values, /*tolerance=*/1e-5);  // integral
      undo_path(ws);
      return;
    }
    if (options_.enable_rounding_heuristic) {
      offer_shared(relax.values, options_.integrality_tolerance);
    }

    // Children re-solve from this node's optimal basis with the dual simplex
    // after the single branching-bound change. Snapshot it before the root
    // dive below re-solves (and re-bases) the workspace.
    const auto child_basis = std::make_shared<const lp::Basis>(ws.revised->basis());
    if (at_root && options_.dive) {
      // The root is expanded exactly once, before any child is stealable, so
      // the dive's incumbent is in place before any teammate expands node 2.
      run_root_dive(ws, relax);
      if (incumbent_meets(bound)) {
        undo_path(ws);
        return;  // the dive's incumbent already matches the root bound
      }
    }
    const std::size_t bc = static_cast<std::size_t>(branch_col);
    const double value = relax.values[bc];
    const double floor_value = std::floor(value);
    const double frac = value - floor_value;
    const double down_hi = std::min(ws.cur_upper[bc], floor_value);
    const double up_lo = std::max(ws.cur_lower[bc], floor_value + 1.0);
    Node down{std::make_shared<PathStep>(
                  PathStep{branch_col, ws.cur_lower[bc], down_hi, node.path}),
              child_basis, bound, branch_col, frac, false};
    Node up{std::make_shared<PathStep>(
                PathStep{branch_col, up_lo, ws.cur_upper[bc], node.path}),
            child_basis, bound, branch_col, frac, true};
    const bool down_viable = ws.cur_lower[bc] <= down_hi;
    const bool up_viable = up_lo <= ws.cur_upper[bc];
    undo_path(ws);
    // Depth-first; explore the child nearer the fractional value first
    // (push it last so it pops first).
    const bool up_first = frac > 0.5;
    WorkerDeque& own = shared_.queues[static_cast<std::size_t>(id)];
    auto push_child = [this, &own](Node&& child) {
      // Count the node open *before* it becomes stealable, so open_nodes
      // never under-reports and no worker exits while work remains.
      shared_.open_nodes.fetch_add(1, std::memory_order_acq_rel);
      util::MutexLock lock(own.mutex);
      own.nodes.push_back(std::move(child));
    };
    if (down_viable && !up_first) {
      push_child(std::move(down));
    }
    if (up_viable) {
      push_child(std::move(up));
    }
    if (down_viable && up_first) {
      push_child(std::move(down));
    }
  }

  /// Snaps integer columns, validates feasibility and offers the point as
  /// the shared incumbent. Strictly worse offers are rejected without the
  /// lock; at equal objective the lexicographically smaller vector wins,
  /// which keeps exhausted multi-worker solves reproducible where
  /// exploration order would otherwise decide the tie.
  void offer_shared(const std::vector<double>& x, double tolerance) {
    std::vector<double> snapped = x;
    for (lp::Col c = 0; c < reduced_.variable_count(); ++c) {
      if (reduced_.is_integer(c)) {
        snapped[static_cast<std::size_t>(c)] =
            std::round(snapped[static_cast<std::size_t>(c)]);
      }
    }
    const double value = reduced_.lp().objective_value(snapped);
    constexpr double kTie = 1e-12;
    if (shared_.has_incumbent.load(std::memory_order_acquire) &&
        value > shared_.best_value.load(std::memory_order_relaxed) + kTie) {
      return;
    }
    if (!reduced_.is_feasible(snapped, tolerance)) {
      return;
    }
    util::MutexLock lock(shared_.incumbent_mutex);
    const bool has = shared_.has_incumbent.load(std::memory_order_relaxed);
    bool take = !has || value < shared_.incumbent_value - kTie;
    if (!take && has && value <= shared_.incumbent_value + kTie) {
      take = std::lexicographical_compare(snapped.begin(), snapped.end(),
                                          shared_.incumbent.begin(),
                                          shared_.incumbent.end());
    }
    if (!take) {
      shared_.incumbent_races.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    shared_.incumbent_value = has ? std::min(value, shared_.incumbent_value) : value;
    shared_.incumbent = std::move(snapped);
    shared_.best_value.store(shared_.incumbent_value, std::memory_order_relaxed);
    shared_.has_incumbent.store(true, std::memory_order_release);
    shared_.incumbent_updates.fetch_add(1, std::memory_order_relaxed);
  }

  // --- shared machinery -----------------------------------------------------

  /// Presolves the model, adopts the reduced LP as the reduced-space MILP
  /// and builds the root node solver. Returns false when presolve alone
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
    if (options_.bounds != nullptr) {
      orig_of_reduced_.assign(static_cast<std::size_t>(n), -1);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        const lp::Col rc = pre_.reduced_column(c);
        if (rc >= 0) {
          orig_of_reduced_[static_cast<std::size_t>(rc)] = c;
        }
      }
    }
    long integer_columns = 0;
    for (lp::Col c = 0; c < n; ++c) {
      if (reduced_.is_integer(c)) {
        ++integer_columns;
      }
    }
    // Two solves per dive level (fix + one backtrack flip), depth at most
    // the integer-column count, plus slack for re-fractionalizations.
    dive_budget_ = 2 * integer_columns + 8;
    init_workspace(ws_);
    ws_.revised.emplace(reduced_.lp(), options_.simplex);
    return true;
  }

  /// Sets a workspace's node box to the root bounds and sizes its
  /// pseudocost tables and the original-space bound mirror a
  /// NodeBoundProvider reads. Called for the root workspace and for every
  /// worker clone.
  void init_workspace(Workspace& ws) const {
    const std::size_t n = static_cast<std::size_t>(reduced_.variable_count());
    ws.cur_lower.resize(n);
    ws.cur_upper.resize(n);
    for (lp::Col c = 0; c < reduced_.variable_count(); ++c) {
      ws.cur_lower[static_cast<std::size_t>(c)] = reduced_.lp().lower_bound(c);
      ws.cur_upper[static_cast<std::size_t>(c)] = reduced_.lp().upper_bound(c);
    }
    ws.pc_down_sum.assign(n, 0.0);
    ws.pc_up_sum.assign(n, 0.0);
    ws.pc_down_count.assign(n, 0);
    ws.pc_up_count.assign(n, 0);
    if (options_.bounds != nullptr) {
      const std::size_t on = static_cast<std::size_t>(model_.variable_count());
      ws.orig_lower.resize(on);
      ws.orig_upper.resize(on);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        const std::size_t cs = static_cast<std::size_t>(c);
        if (pre_.column_fixed(c)) {
          ws.orig_lower[cs] = pre_.fixed_value(c);
          ws.orig_upper[cs] = pre_.fixed_value(c);
        } else {
          const lp::Col rc = pre_.reduced_column(c);
          ws.orig_lower[cs] = reduced_.lp().lower_bound(rc);
          ws.orig_upper[cs] = reduced_.lp().upper_bound(rc);
        }
      }
    }
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
      // No worker is running yet; the lock keeps the analysis exact.
      util::MutexLock lock(shared_.incumbent_mutex);
      shared_.incumbent_value = reduced_.lp().objective_value(mapped);
      shared_.incumbent = std::move(mapped);
      shared_.best_value.store(shared_.incumbent_value, std::memory_order_relaxed);
      shared_.has_incumbent.store(true, std::memory_order_release);
    }
  }

  /// Replays the node's branch path onto the workspace's effective-bound
  /// arrays and its node solver, recording undo entries.
  void apply_path(Workspace& ws, const std::shared_ptr<const PathStep>& path) {
    ws.path_buffer.clear();
    for (const PathStep* step = path.get(); step != nullptr; step = step->parent.get()) {
      ws.path_buffer.push_back(step);
    }
    for (auto it = ws.path_buffer.rbegin(); it != ws.path_buffer.rend(); ++it) {
      const PathStep* step = *it;
      const std::size_t c = static_cast<std::size_t>(step->col);
      ws.undo_stack.push_back({step->col, ws.cur_lower[c], ws.cur_upper[c]});
      set_node_bounds(ws, step->col, step->lower, step->upper);
    }
  }

  void undo_path(Workspace& ws) {
    for (auto it = ws.undo_stack.rbegin(); it != ws.undo_stack.rend(); ++it) {
      set_node_bounds(ws, it->col, it->lower, it->upper);
    }
    ws.undo_stack.clear();
  }

  void set_node_bounds(Workspace& ws, lp::Col c, double lower, double upper) {
    const std::size_t j = static_cast<std::size_t>(c);
    ws.cur_lower[j] = lower;
    ws.cur_upper[j] = upper;
    if (!ws.orig_lower.empty()) {
      // Reduced-column bounds are the original column's effective bounds
      // (presolve only removes columns, it never rescales the survivors),
      // so the mirror takes the same values at the mapped index.
      const std::size_t oc = static_cast<std::size_t>(orig_of_reduced_[j]);
      ws.orig_lower[oc] = lower;
      ws.orig_upper[oc] = upper;
    }
    ws.revised->set_bounds(c, lower, upper);
  }

  lp::LpSolution solve_node(Workspace& ws, const Node& node) {
    if (node.basis != nullptr && !node.basis->empty()) {
      return ws.revised->solve_from(*node.basis);
    }
    return ws.revised->solve();
  }

  /// The node's combinatorial lower bound in reduced space (comparable with
  /// the incumbent value): the provider's original-space bound minus the
  /// objective mass on presolve-fixed columns. -infinity when no provider is
  /// configured; +infinity when the provider proves the node box empty.
  double combinatorial_bound(const Workspace& ws) const {
    if (options_.bounds == nullptr) {
      return -std::numeric_limits<double>::infinity();
    }
    const double cb = options_.bounds->objective_lower_bound(ws.orig_lower, ws.orig_upper);
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
  void set_lp_cutoff(Workspace& ws, bool at_root, double incumbent_value) {
    if (options_.bounds == nullptr) {
      return;
    }
    const double cutoff = at_root ? std::numeric_limits<double>::infinity()
                                  : incumbent_value - options_.absolute_gap;
    ws.revised->set_objective_cutoff(cutoff);
  }

  /// Variable selection: pseudocost branching scores a fractional column by
  /// the product of its estimated up/down bound degradations; a column with
  /// no history on either side is "unreliable" and the rule falls back to
  /// most-fractional among the unreliable ones, which is exactly what
  /// initializes the pseudocosts. Returns -1 when the point is integral.
  int select_branch(const Workspace& ws, const std::vector<double>& x) const {
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
      if (ws.pc_down_count[j] == 0 || ws.pc_up_count[j] == 0) {
        if (frac > best_unreliable_frac) {
          best_unreliable_frac = frac;
          best_unreliable = c;
        }
      } else {
        const double down =
            ws.pc_down_sum[j] / static_cast<double>(ws.pc_down_count[j]) * f;
        const double up =
            ws.pc_up_sum[j] / static_cast<double>(ws.pc_up_count[j]) * (1.0 - f);
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
  void update_pseudocost(Workspace& ws, const Node& node, double child_bound) const {
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
      ws.pc_up_sum[j] += gain;
      ++ws.pc_up_count[j];
    } else {
      ws.pc_down_sum[j] += gain;
      ++ws.pc_down_count[j];
    }
  }

  /// The root dive (see milp/dive.hpp): fixes its way down from the root
  /// relaxation with warm re-solves, offers any integral point it reaches as
  /// an incumbent, and restores every bound it touched. It polls the same
  /// budget check as the node loop before every re-solve. LP work lands in
  /// the dive counters, never in the node budget.
  void run_root_dive(Workspace& ws, const lp::LpSolution& root_relax) {
    std::vector<BoundUndo> undo;
    lp::Basis dive_basis = ws.revised->basis();
    DiveHooks hooks;
    hooks.lower = &ws.cur_lower;
    hooks.upper = &ws.cur_upper;
    hooks.set_bounds = [this, &ws, &undo](lp::Col c, double lo, double hi) {
      const std::size_t j = static_cast<std::size_t>(c);
      undo.push_back({c, ws.cur_lower[j], ws.cur_upper[j]});
      set_node_bounds(ws, c, lo, hi);
    };
    hooks.resolve = [this, &ws, &dive_basis]() {
      lp::LpSolution sol = ws.revised->solve_from(dive_basis);
      if (sol.status == lp::LpStatus::Optimal) {
        dive_basis = ws.revised->basis();
      }
      return sol;
    };
    hooks.stop = [this] { return out_of_budget(); };
    const DiveResult result =
        dive_for_incumbent(reduced_, hooks, root_relax,
                           options_.integrality_tolerance,
                           /*feasibility_tolerance=*/1e-5, dive_budget_);
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      set_node_bounds(ws, it->col, it->lower, it->upper);
    }
    shared_.dive_lp_solves.fetch_add(result.lp_solves, std::memory_order_relaxed);
    if (result.found) {
      shared_.dive_found.store(true, std::memory_order_relaxed);
      offer_shared(result.values, /*tolerance=*/1e-5);
    }
  }

  /// The common epilogue, after the team has joined: best bound, incumbent
  /// restoration and status.
  void finish(MilpSolution& out) {
    const bool exhausted = shared_.exhausted.load(std::memory_order_relaxed);
    util::MutexLock lock(shared_.incumbent_mutex);
    if (shared_.has_incumbent.load(std::memory_order_acquire)) {
      std::vector<double> full = pre_.restore(shared_.incumbent);
      for (lp::Col c = 0; c < model_.variable_count(); ++c) {
        if (model_.is_integer(c)) {
          full[static_cast<std::size_t>(c)] = std::round(full[static_cast<std::size_t>(c)]);
        }
      }
      out.values = std::move(full);
      out.objective = model_.lp().objective_value(out.values);
      out.status = exhausted ? MilpStatus::Optimal : MilpStatus::Feasible;
      out.best_bound = exhausted ? out.objective
                                 : shared_.root_bound.load(std::memory_order_relaxed) +
                                       objective_offset_;
    } else {
      out.best_bound = shared_.root_bound.load(std::memory_order_relaxed) + objective_offset_;
      const bool proven = shared_.any_lp_solved.load(std::memory_order_relaxed) ||
                          shared_.root_infeasible.load(std::memory_order_relaxed) ||
                          out.milp_nodes > 0;
      out.status = exhausted && proven ? MilpStatus::Infeasible : MilpStatus::NoSolution;
    }
  }

  const MilpModel& model_;
  const MilpOptions& options_;
  const int workers_;
  SharedSearch shared_;
  lp::Presolved pre_;
  MilpModel reduced_;  ///< presolved model the search actually branches over
  double objective_offset_ = 0.0;  ///< objective mass on presolve-fixed columns
  Workspace ws_;  ///< root workspace; worker 0's
  bool deadline_set_;
  Clock::time_point deadline_{};
  /// Original column index per reduced column (provider mode only).
  std::vector<lp::Col> orig_of_reduced_;
  long dive_budget_ = 0;
};

}  // namespace

MilpSolution solve_milp(const MilpModel& model, const MilpOptions& options) {
  Solver solver(model, options);
  return solver.run();
}

}  // namespace cohls::milp
