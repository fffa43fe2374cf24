// Combinatorial per-node lower bounds for the branch-and-bound search.
//
// The LP relaxation of the per-layer scheduling MILP is weak near the root:
// the big-M conflict disjunctions (10)-(13) are vacuous while their q
// binaries are fractional, so the LP bound is little more than the critical
// path. A NodeBoundProvider computes a *combinatorial* lower bound from the
// branch-path fixings alone — no LP solve — and the search prunes a node
// whenever max(LP parent bound, combinatorial bound) already meets the
// incumbent. SchedulingBounds is the concrete provider for device-conflict
// scheduling models: a Fernandez-style resource-interval (energetic) bound
// over the operations' time windows and a Fujita-style binary-search
// device-count bound, both evaluated against the node's effective variable
// bounds.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lp/model.hpp"

namespace cohls::milp {

/// Device-slot bitset used by the combinatorial bounds. Fixed-width 64-bit:
/// per-layer models are capped well below 64 visible slots, and a flat
/// integer keeps the energetic-reasoning inner loops branch-free.
using DeviceMask = std::uint64_t;

/// Interface the solver calls once per node, before the LP relaxation.
/// `lower`/`upper` are the node's effective variable bounds in the ORIGINAL
/// model space (branch-path tightenings already applied; presolve-fixed
/// columns collapsed to their fixed value). Implementations return a valid
/// lower bound on the objective of every integral solution inside that box —
/// +infinity when the box provably contains none — or -infinity when nothing
/// beyond the LP bound is known.
class NodeBoundProvider {
 public:
  virtual ~NodeBoundProvider() = default;
  [[nodiscard]] virtual double objective_lower_bound(
      const std::vector<double>& lower, const std::vector<double>& upper) const = 0;
};

/// Combinatorial bounds for disjunctive device-conflict scheduling MILPs
/// (the per-layer model of Sec. 4). Built once per model by the code that
/// owns the model's structure (core::IlpLayerModel), then read by the
/// search.
class SchedulingBounds final : public NodeBoundProvider {
 public:
  struct Task {
    /// Integer start-time column.
    lp::Col start = -1;
    /// Device-conflict occupation: duration plus outgoing transport reserve.
    /// Two tasks on one device must keep their occupation intervals disjoint.
    double occupation = 0.0;
    /// Pure duration; the makespan covers start + duration (the outgoing
    /// reserve may run past the makespan).
    double duration = 0.0;
    /// Binding column per visible device slot; -1 marks a slot the task is
    /// structurally incompatible with (never bindable).
    std::vector<lp::Col> binding;
  };

  struct Config {
    std::vector<Task> tasks;
    /// Makespan epigraph column and its objective weight (C_t).
    lp::Col makespan = -1;
    double makespan_weight = 0.0;
    /// Device slots that cost nothing to use (inherited fixed devices and
    /// hint slots) vs freely-configurable new slots, and the cheapest
    /// integration cost any used new slot must pay.
    int free_devices = 0;
    int new_devices = 0;
    double min_new_device_cost = 0.0;
    /// Columns whose objective contribution pays for new-device integration
    /// (per-slot used binaries or cost aggregates). The device-counting term
    /// already charges min_new_device_cost per extra device, so these columns
    /// are excluded from the trivial box bound and folded into that term —
    /// otherwise a branch that fixes a used binary to 1 would be charged
    /// twice, overshooting the true subtree optimum.
    std::vector<lp::Col> new_device_cols;
    /// Optional task-level refinement of the device payment term. When
    /// non-empty, `task_new_cost[t]` is a floor on the payment of any NEW
    /// slot hosting task t (its cheapest compatible configuration).
    /// `distinct_tasks` lists tasks that must occupy pairwise-distinct
    /// slots (the paper's indeterminate parallel rule): their floors SUM,
    /// except that tasks reaching a slot in `free_slot_mask` may escape
    /// payment — at most as many as there are reachable free slots.
    std::vector<double> task_new_cost;
    std::vector<int> distinct_tasks;
    DeviceMask free_slot_mask = 0;
    /// Full objective coefficient vector of the model (copied; the provider
    /// outlives any reference the caller holds).
    std::vector<double> objective;
  };

  explicit SchedulingBounds(Config config);

  [[nodiscard]] double objective_lower_bound(
      const std::vector<double>& lower, const std::vector<double>& upper) const override;

  // --- exposed for the bound-validity test suite ---------------------------

  /// Lower bound on the makespan achievable with at most `devices` usable
  /// slots, given per-task windows [est, lst] and allowed-device masks.
  /// Returns +infinity when the interval (energetic) test proves no such
  /// schedule exists.
  [[nodiscard]] double makespan_bound(const std::vector<double>& lower,
                                      const std::vector<double>& upper,
                                      int devices) const;

  /// Fujita-style binary search: the smallest device count for which the
  /// interval test admits a schedule finishing by `deadline`. Returns one
  /// past the visible device count when even the full set fails.
  [[nodiscard]] int min_devices_for_deadline(const std::vector<double>& lower,
                                             const std::vector<double>& upper,
                                             double deadline) const;

 private:
  struct Window {
    int task = -1;        ///< index into config_.tasks (groups are subsets, so
                          ///< a window's position does not identify its task)
    double est = 0.0;     ///< earliest start (node lower bound on the start col)
    double lst = 0.0;     ///< latest start (node upper bound on the start col)
    DeviceMask mask = 0;  ///< allowed device slots under the node's fixings
  };

  /// Derives per-task windows and allowed-device masks from the node box.
  /// Returns false when some task has no allowed device (node infeasible).
  [[nodiscard]] bool derive_windows(const std::vector<double>& lower,
                                    const std::vector<double>& upper,
                                    std::vector<Window>& out) const;

  /// The Fernandez / energetic-reasoning feasibility test: can every task
  /// run inside its window on `devices` machines, treating windows' latest
  /// starts as min(lst, deadline - duration)?
  [[nodiscard]] bool intervals_feasible(const std::vector<Window>& windows,
                                        double deadline, int devices) const;

  Config config_;
  int device_count_ = 0;  ///< free + new visible slots
  /// Per-column flag: true for members of config_.new_device_cols.
  std::vector<bool> pays_for_device_;
};

}  // namespace cohls::milp
