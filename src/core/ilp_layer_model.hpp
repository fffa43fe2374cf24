// The per-layer ILP of Sec. 4, built on cohls::milp. Constraints map
// one-to-one to the paper's equations:
//   (1)-(4)   device configuration of freely-configurable new slots
//             (note: the paper writes (3)-(4) with '=', which would force
//             every ring to be large and every chamber to be tiny; the
//             intended meaning per the surrounding text — "the capacity of
//             a ring may vary among large, medium and small" — requires
//             '>=', which is what we emit);
//   (5)-(8)   component-oriented binding consistency;
//   (9)       dependency with transportation time, refined so co-located
//             producer/consumer pairs pay zero transport;
//   (10)-(13) big-M device-conflict disjunction;
//   (14)      indeterminate operations close the sub-schedule;
//   (15)-(20) objective sums (makespan, area, processing);
//   (21)      transportation-path counting.
// Devices visible to the model are: fixed devices (inherited, sunk cost),
// hint slots (configs a later layer integrates anyway — Fig. 6 — so zero
// cost here), and new slots whose configuration the ILP chooses at full
// integration cost.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "milp/model.hpp"
#include "model/assay.hpp"
#include "model/cost_model.hpp"
#include "model/device.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/transport_plan.hpp"

namespace cohls::milp {
class NodeBoundProvider;
}  // namespace cohls::milp

namespace cohls::core {

struct IlpLayerInputs {
  LayerId layer;
  std::vector<OperationId> ops;
  /// Inherited devices (id + config); binding to them costs nothing.
  std::vector<std::pair<DeviceId, model::DeviceConfig>> fixed_devices;
  /// Configurations a later layer integrates anyway (zero cost here).
  std::vector<schedule::DeviceHint> hints;
  /// Number of freely-configurable new device slots.
  int new_slots = 2;
  /// Binding of prior-layer operations (cross-layer transport and paths).
  schedule::Binding prior_binding;
  /// Paths already integrated (re-using them costs nothing).
  schedule::PathMatrix existing_paths;
  /// Operations forced onto a specific fixed device (recovery re-synthesis
  /// pins in-flight operations to the device already running them). Every
  /// pinned device must appear in `fixed_devices` and be compatible with
  /// the pinned operation; the model fixes the binding binaries outright so
  /// the residual layer solves exactly instead of falling back to the
  /// heuristic.
  std::map<OperationId, DeviceId> pinned;
};

class IlpLayerModel {
 public:
  IlpLayerModel(const model::Assay& assay, IlpLayerInputs inputs,
                const schedule::TransportPlan& transport, const model::CostModel& costs);

  [[nodiscard]] const milp::MilpModel& model() const { return model_; }

  /// Decodes a feasible MILP solution: instantiates the used hint/new
  /// devices into `inventory` and returns the layer schedule (with consumed
  /// hint keys).
  [[nodiscard]] schedule::LayerResult decode(const std::vector<double>& solution,
                                             model::DeviceInventory& inventory) const;

  /// A combinatorial node-bound provider over this model's scheduling
  /// structure (Fernandez-style device-conflict intervals plus device
  /// counting), for milp::MilpOptions::bounds. The provider holds no
  /// reference back to this object and may outlive it.
  [[nodiscard]] std::shared_ptr<const milp::NodeBoundProvider> bound_provider() const;

  /// Encodes a heuristic layer result as a full assignment of this model's
  /// variables, for milp::MilpOptions::warm_start. `inventory` must be the
  /// inventory the heuristic scheduled against (it resolves the result's
  /// device ids to configurations). Returns an empty vector when the result
  /// does not map onto the model's device slots; the caller should then
  /// simply not seed a warm start.
  [[nodiscard]] std::vector<double> encode(const schedule::LayerResult& result,
                                           const model::DeviceInventory& inventory) const;

  // --- variable accessors (exposed for white-box tests) -------------------
  [[nodiscard]] int device_count() const { return static_cast<int>(device_kind_.size()); }
  [[nodiscard]] lp::Col binding_var(int op_index, int device_index) const;
  [[nodiscard]] lp::Col start_var(int op_index) const;
  [[nodiscard]] lp::Col makespan_var() const { return makespan_; }

 private:
  enum class SlotKind { Fixed, Hint, New };

  struct NewSlotVars {
    lp::Col used;
    lp::Col ring;
    lp::Col chamber;
    std::array<lp::Col, 4> capacity;       // by model::Capacity index
    std::map<model::AccessoryId, lp::Col> accessories;
    std::array<lp::Col, 4> ring_extra;     // w: ring AND capacity products
    lp::Col cost = -1;                     // slotcost epigraph variable
  };

  /// Linearization variables of one in-layer dependency with transport.
  struct DepVars {
    int parent;
    int child;
    lp::Col same;
    std::vector<lp::Col> z;  // per device
  };

  void build();
  void add_device_configuration();      // (1)-(4)
  void add_binding_consistency();       // (5)-(8)
  void add_dependencies();              // (9)
  void add_conflicts();                 // (10)-(13), per-pair big-M
  void add_indeterminate_rules();       // (14) + parallel-device rule
  void add_objective_sums();            // (15)-(21)
  void tighten_time_windows();          // per-op [est, lst] start bounds
  void add_clique_cuts();               // must-overlap cliques + device capacity
  void add_cost_floor_cuts();           // per-op configuration cost floors

  [[nodiscard]] int op_index(OperationId id) const;
  [[nodiscard]] Minutes outgoing_reserve(OperationId id) const;
  [[nodiscard]] bool device_compatible(const model::Operation& op, int device_index) const;
  /// Cost of the cheapest new-slot configuration that can execute `op`
  /// (container/capacity/accessory requirements honoured); 0 when no
  /// configuration is compatible (the op then never binds a new slot).
  [[nodiscard]] double min_new_slot_cost(const model::Operation& op) const;
  [[nodiscard]] double occupation(int op_index) const;
  /// True when a directed in-layer dependency path leads from `a` to `b`.
  [[nodiscard]] bool precedes(int a, int b) const;
  /// True when the start windows force the two occupations to overlap in
  /// every feasible schedule (the pair can never be separated in time).
  [[nodiscard]] bool must_overlap(int a, int b) const;

  const model::Assay& assay_;
  IlpLayerInputs inputs_;
  const schedule::TransportPlan& transport_;
  const model::CostModel& costs_;

  milp::MilpModel model_;
  double horizon_ = 0.0;
  double big_m_ = 0.0;

  // Visible devices: fixed, then hints, then new slots.
  std::vector<SlotKind> device_kind_;
  std::vector<std::optional<model::DeviceConfig>> device_config_;  // nullopt for new
  std::vector<DeviceId> fixed_ids_;  // parallel to fixed prefix
  std::vector<NewSlotVars> new_slot_vars_;  // parallel to new-slot suffix

  std::vector<std::vector<lp::Col>> binding_;  // [op][device]
  std::vector<lp::Col> start_;                 // [op]
  lp::Col makespan_ = -1;
  /// Path variable per unordered pair of *visible device indexes*.
  std::map<std::pair<int, int>, lp::Col> path_vars_;
  std::map<OperationId, int> op_index_;
  std::set<OperationId> in_layer_;

  /// Tightened start windows (set by tighten_time_windows, mirrored in the
  /// start_ column bounds): est_ from longest in-layer predecessor chains
  /// and cross-layer arrivals, lst_ from successor chains against horizon_.
  std::vector<double> est_;
  std::vector<double> lst_;
  /// In-layer precedence closure: reach_[a] holds b iff a's output
  /// (transitively) feeds b within the layer.
  std::vector<std::set<int>> reach_;
  /// Conflict disjunction binaries {q0, q1, q2} per ordered pair a < b.
  std::map<std::pair<int, int>, std::array<lp::Col, 3>> conflict_vars_;
  /// Same-device linearizations of in-layer dependencies with transport.
  std::vector<DepVars> dep_vars_;
};

}  // namespace cohls::core
