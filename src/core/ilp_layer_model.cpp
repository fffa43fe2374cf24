#include "core/ilp_layer_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "milp/bounds.hpp"
#include "model/compatibility.hpp"
#include "util/check.hpp"

namespace cohls::core {

IlpLayerModel::IlpLayerModel(const model::Assay& assay, IlpLayerInputs inputs,
                             const schedule::TransportPlan& transport,
                             const model::CostModel& costs)
    : assay_(assay), inputs_(std::move(inputs)), transport_(transport), costs_(costs) {
  COHLS_EXPECT(!inputs_.ops.empty(), "a layer model needs at least one operation");
  COHLS_EXPECT(inputs_.new_slots >= 0, "new slot count must be non-negative");
  COHLS_EXPECT(transport.fits(assay), "transport plan belongs to another assay");
  in_layer_ = std::set<OperationId>(inputs_.ops.begin(), inputs_.ops.end());
  for (std::size_t i = 0; i < inputs_.ops.size(); ++i) {
    op_index_[inputs_.ops[i]] = static_cast<int>(i);
  }
  build();
}

int IlpLayerModel::op_index(OperationId id) const {
  const auto it = op_index_.find(id);
  COHLS_EXPECT(it != op_index_.end(), "operation is not in this layer");
  return it->second;
}

lp::Col IlpLayerModel::binding_var(int op, int device) const {
  COHLS_EXPECT(op >= 0 && op < static_cast<int>(binding_.size()), "op index out of range");
  COHLS_EXPECT(device >= 0 && device < device_count(), "device index out of range");
  return binding_[static_cast<std::size_t>(op)][static_cast<std::size_t>(device)];
}

lp::Col IlpLayerModel::start_var(int op) const {
  COHLS_EXPECT(op >= 0 && op < static_cast<int>(start_.size()), "op index out of range");
  return start_[static_cast<std::size_t>(op)];
}

Minutes IlpLayerModel::outgoing_reserve(OperationId id) const {
  Minutes reserve{0};
  for (const EdgeId edge : assay_.child_edges(id)) {
    if (in_layer_.count(assay_.edge_child(edge))) {
      reserve = std::max(reserve, transport_.edge_time(edge));
    }
  }
  return reserve;
}

double IlpLayerModel::occupation(int op) const {
  const OperationId id = inputs_.ops[static_cast<std::size_t>(op)];
  return static_cast<double>((assay_.operation(id).duration() + outgoing_reserve(id)).count());
}

bool IlpLayerModel::precedes(int a, int b) const {
  return reach_[static_cast<std::size_t>(a)].count(b) > 0;
}

bool IlpLayerModel::must_overlap(int a, int b) const {
  const double dur_a = static_cast<double>(
      assay_.operation(inputs_.ops[static_cast<std::size_t>(a)]).duration().count());
  const double dur_b = static_cast<double>(
      assay_.operation(inputs_.ops[static_cast<std::size_t>(b)]).duration().count());
  const double occ_a = occupation(a);
  const double occ_b = occupation(b);
  // "a runs after b" (q0 = 0) is impossible when a precedes b or the windows
  // leave no room for st_a >= st_b + occ_b; symmetrically for "a before b".
  const bool a_after_b_impossible =
      (precedes(a, b) && dur_a + occ_b > 0.0) ||
      lst_[static_cast<std::size_t>(a)] <
          est_[static_cast<std::size_t>(b)] + occ_b - 1e-9;
  const bool a_before_b_impossible =
      (precedes(b, a) && dur_b + occ_a > 0.0) ||
      lst_[static_cast<std::size_t>(b)] <
          est_[static_cast<std::size_t>(a)] + occ_a - 1e-9;
  return a_after_b_impossible && a_before_b_impossible;
}

bool IlpLayerModel::device_compatible(const model::Operation& op, int device) const {
  const auto& config = device_config_[static_cast<std::size_t>(device)];
  if (config.has_value()) {
    return model::is_compatible(op, *config);
  }
  return true;  // new slot: the configuration constraints handle legality
}

void IlpLayerModel::build() {
  // --- visible device list -------------------------------------------------
  for (const auto& [id, config] : inputs_.fixed_devices) {
    device_kind_.push_back(SlotKind::Fixed);
    device_config_.push_back(config);
    fixed_ids_.push_back(id);
  }
  for (const auto& hint : inputs_.hints) {
    device_kind_.push_back(SlotKind::Hint);
    device_config_.push_back(hint.config);
  }
  for (int s = 0; s < inputs_.new_slots; ++s) {
    device_kind_.push_back(SlotKind::New);
    device_config_.push_back(std::nullopt);
  }
  COHLS_EXPECT(device_count() >= 1, "the layer model needs at least one device slot");

  // --- horizon and big-M -----------------------------------------------------
  double total = 0.0;
  Minutes max_cross{0};
  for (const OperationId id : inputs_.ops) {
    total += static_cast<double>(
        (assay_.operation(id).duration() + outgoing_reserve(id)).count());
    for (const EdgeId edge : assay_.operation(id).parent_edges()) {
      if (!in_layer_.count(assay_.edge_parent(edge))) {
        max_cross = std::max(max_cross, transport_.edge_time(edge));
      }
    }
  }
  horizon_ = total + static_cast<double>(max_cross.count());
  big_m_ = horizon_ + 1.0;

  // --- core variables --------------------------------------------------------
  const int n = static_cast<int>(inputs_.ops.size());
  binding_.assign(static_cast<std::size_t>(n), {});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < device_count(); ++j) {
      binding_[static_cast<std::size_t>(i)].push_back(model_.add_binary(0.0));
    }
  }
  for (int i = 0; i < n; ++i) {
    start_.push_back(model_.add_variable(milp::VarKind::Integer, 0.0, horizon_, 0.0));
  }
  makespan_ =
      model_.add_variable(milp::VarKind::Continuous, 0.0, horizon_, costs_.weight_time());

  tighten_time_windows();
  add_device_configuration();
  add_binding_consistency();
  add_dependencies();
  add_conflicts();
  add_clique_cuts();
  add_indeterminate_rules();
  add_objective_sums();
  add_cost_floor_cuts();
}

// Per-operation start windows [est, lst], derived from the dependency
// structure alone and folded into the start columns' bounds. Everything
// downstream keys off these windows: the per-pair big-M constants in
// (10)-(11), the q fixings, the clique cuts, and the node-bound provider
// (whose root windows are exactly these column bounds).
void IlpLayerModel::tighten_time_windows() {
  const int n = static_cast<int>(inputs_.ops.size());
  est_.assign(static_cast<std::size_t>(n), 0.0);
  lst_.assign(static_cast<std::size_t>(n), horizon_);
  reach_.assign(static_cast<std::size_t>(n), {});

  std::vector<std::vector<int>> children(static_cast<std::size_t>(n));
  for (const OperationId child_id : inputs_.ops) {
    const int c = op_index(child_id);
    for (const EdgeId edge : assay_.operation(child_id).parent_edges()) {
      const OperationId parent_id = assay_.edge_parent(edge);
      if (in_layer_.count(parent_id)) {
        children[static_cast<std::size_t>(op_index(parent_id))].push_back(c);
      } else {
        // Cross-layer parent: with no fixed producer device the arrival time
        // is a hard earliest start (the dep_cross row); with one, the child
        // may co-locate and start at zero, so nothing is implied.
        const double t = static_cast<double>(transport_.edge_time(edge).count());
        const DeviceId prior = inputs_.prior_binding.device(parent_id);
        const bool producer_fixed =
            prior.valid() &&
            std::find(fixed_ids_.begin(), fixed_ids_.end(), prior) != fixed_ids_.end();
        if (t > 0.0 && !producer_fixed) {
          est_[static_cast<std::size_t>(c)] =
              std::max(est_[static_cast<std::size_t>(c)], t);
        }
      }
    }
  }

  // Precedence closure (the layer DAG is small; per-op DFS is fine).
  for (int a = 0; a < n; ++a) {
    std::vector<int> stack = children[static_cast<std::size_t>(a)];
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      if (reach_[static_cast<std::size_t>(a)].insert(b).second) {
        for (const int grandchild : children[static_cast<std::size_t>(b)]) {
          stack.push_back(grandchild);
        }
      }
    }
  }

  const auto duration = [this](int i) {
    return static_cast<double>(
        assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]).duration().count());
  };

  // Longest-path relaxation over the DAG. A same-device child pays no
  // transport, so only durations are safe to propagate.
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (int p = 0; p < n; ++p) {
      for (const int c : children[static_cast<std::size_t>(p)]) {
        const double reach_time = est_[static_cast<std::size_t>(p)] + duration(p);
        if (reach_time > est_[static_cast<std::size_t>(c)] + 1e-9) {
          est_[static_cast<std::size_t>(c)] = reach_time;
          changed = true;
        }
      }
    }
    if (!changed) {
      break;
    }
  }

  // Latest starts against the horizon: st_i + (longest duration chain from i
  // inclusive) <= makespan <= horizon.
  std::vector<double> down(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    down[static_cast<std::size_t>(i)] = duration(i);
  }
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (int p = 0; p < n; ++p) {
      for (const int c : children[static_cast<std::size_t>(p)]) {
        const double chain = duration(p) + down[static_cast<std::size_t>(c)];
        if (chain > down[static_cast<std::size_t>(p)] + 1e-9) {
          down[static_cast<std::size_t>(p)] = chain;
          changed = true;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  for (int i = 0; i < n; ++i) {
    lst_[static_cast<std::size_t>(i)] = horizon_ - down[static_cast<std::size_t>(i)];
    COHLS_ASSERT(est_[static_cast<std::size_t>(i)] <=
                     lst_[static_cast<std::size_t>(i)] + 1e-9,
                 "time-window propagation left an empty start window");
    model_.lp().set_bounds(start_var(i), est_[static_cast<std::size_t>(i)],
                           lst_[static_cast<std::size_t>(i)]);
  }
}

// Constraints (1)-(4), gated on a `used` indicator so an untouched slot
// carries no configuration and no cost.
void IlpLayerModel::add_device_configuration() {
  // Accessory kinds any layer operation requires; other kinds can only
  // raise cost, so new slots never need them.
  std::set<model::AccessoryId> relevant;
  for (const OperationId id : inputs_.ops) {
    for (const model::AccessoryId acc : assay_.operation(id).accessories()) {
      relevant.insert(acc);
    }
  }

  for (int j = 0; j < device_count(); ++j) {
    if (device_kind_[static_cast<std::size_t>(j)] != SlotKind::New) {
      continue;
    }
    NewSlotVars vars;
    vars.used = model_.add_binary(0.0);
    vars.ring = model_.add_binary(0.0);
    vars.chamber = model_.add_binary(0.0);
    for (const model::Capacity cap : model::kAllCapacities) {
      vars.capacity[static_cast<std::size_t>(cap)] = model_.add_binary(0.0);
      vars.ring_extra[static_cast<std::size_t>(cap)] =
          model_.add_variable(milp::VarKind::Continuous, 0.0, 1.0, 0.0);
    }
    for (const model::AccessoryId acc : relevant) {
      vars.accessories[acc] = model_.add_binary(0.0);
    }

    // (1): exactly one container — when the slot is used at all.
    model_.add_constraint({{vars.ring, 1.0}, {vars.chamber, 1.0}, {vars.used, -1.0}},
                          lp::RowSense::Equal, 0.0);
    // (2): exactly one capacity — when used.
    {
      std::vector<lp::Term> terms;
      for (const model::Capacity cap : model::kAllCapacities) {
        terms.emplace_back(vars.capacity[static_cast<std::size_t>(cap)], 1.0);
      }
      terms.emplace_back(vars.used, -1.0);
      model_.add_constraint(std::move(terms), lp::RowSense::Equal, 0.0);
    }
    // (3) as '>=': a ring's capacity lies in {large, medium, small}
    // (equivalently, tiny implies chamber).
    model_.add_constraint(
        {{vars.capacity[static_cast<std::size_t>(model::Capacity::Large)], 1.0},
         {vars.capacity[static_cast<std::size_t>(model::Capacity::Medium)], 1.0},
         {vars.capacity[static_cast<std::size_t>(model::Capacity::Small)], 1.0},
         {vars.ring, -1.0}},
        lp::RowSense::GreaterEqual, 0.0);
    // (4) as '>=': a chamber's capacity lies in {medium, small, tiny}.
    model_.add_constraint(
        {{vars.capacity[static_cast<std::size_t>(model::Capacity::Medium)], 1.0},
         {vars.capacity[static_cast<std::size_t>(model::Capacity::Small)], 1.0},
         {vars.capacity[static_cast<std::size_t>(model::Capacity::Tiny)], 1.0},
         {vars.chamber, -1.0}},
        lp::RowSense::GreaterEqual, 0.0);
    // Accessories only on used slots.
    for (const auto& [acc, col] : vars.accessories) {
      model_.add_constraint({{col, 1.0}, {vars.used, -1.0}}, lp::RowSense::LessEqual, 0.0);
    }
    // w = ring AND capacity (lower-bounded product; the objective pushes w
    // down, so only the >= side is needed).
    for (const model::Capacity cap : model::kAllCapacities) {
      model_.add_constraint(
          {{vars.ring_extra[static_cast<std::size_t>(cap)], 1.0},
           {vars.ring, -1.0},
           {vars.capacity[static_cast<std::size_t>(cap)], -1.0}},
          lp::RowSense::GreaterEqual, -1.0);
    }
    new_slot_vars_.push_back(vars);
  }
}

// Constraints (5)-(8).
void IlpLayerModel::add_binding_consistency() {
  const int n = static_cast<int>(inputs_.ops.size());
  int new_slot_counter = 0;
  std::vector<int> new_slot_of_device(static_cast<std::size_t>(device_count()), -1);
  for (int j = 0; j < device_count(); ++j) {
    if (device_kind_[static_cast<std::size_t>(j)] == SlotKind::New) {
      new_slot_of_device[static_cast<std::size_t>(j)] = new_slot_counter++;
    }
  }

  for (int i = 0; i < n; ++i) {
    const model::Operation& op = assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]);
    // (5): bound to exactly one device.
    std::vector<lp::Term> sum;
    for (int j = 0; j < device_count(); ++j) {
      sum.emplace_back(binding_var(i, j), 1.0);
    }
    model_.add_constraint(std::move(sum), lp::RowSense::Equal, 1.0);

    for (int j = 0; j < device_count(); ++j) {
      const lp::Col od = binding_var(i, j);
      if (device_kind_[static_cast<std::size_t>(j)] != SlotKind::New) {
        // Fixed / hint: compatibility is a constant; forbid when violated.
        if (!model::is_compatible(op, *device_config_[static_cast<std::size_t>(j)])) {
          model_.lp().set_bounds(od, 0.0, 0.0);
        }
        continue;
      }
      const NewSlotVars& vars =
          new_slot_vars_[static_cast<std::size_t>(new_slot_of_device[static_cast<std::size_t>(j)])];
      // Binding implies the slot is used.
      model_.add_constraint({{od, 1.0}, {vars.used, -1.0}}, lp::RowSense::LessEqual, 0.0);
      // (6): container requirement.
      if (op.container().has_value()) {
        const lp::Col want =
            *op.container() == model::ContainerKind::Ring ? vars.ring : vars.chamber;
        model_.add_constraint({{want, 1.0}, {od, -1.0}}, lp::RowSense::GreaterEqual, 0.0);
      }
      // (8): capacity requirement.
      if (op.capacity().has_value()) {
        model_.add_constraint(
            {{vars.capacity[static_cast<std::size_t>(*op.capacity())], 1.0}, {od, -1.0}},
            lp::RowSense::GreaterEqual, 0.0);
      }
      // (7): accessory requirements.
      for (const model::AccessoryId acc : op.accessories()) {
        model_.add_constraint({{vars.accessories.at(acc), 1.0}, {od, -1.0}},
                              lp::RowSense::GreaterEqual, 0.0);
      }
    }

    // Recovery pins: the operation is already running on a specific fixed
    // device, so its binding row collapses to a constant. Fixing the
    // binaries outright (rather than adding rows) lets presolve drop them
    // and keeps the residual model small.
    const auto pin = inputs_.pinned.find(inputs_.ops[static_cast<std::size_t>(i)]);
    if (pin != inputs_.pinned.end()) {
      int pinned_device = -1;
      for (std::size_t f = 0; f < fixed_ids_.size(); ++f) {
        if (fixed_ids_[f] == pin->second) {
          pinned_device = static_cast<int>(f);
          break;
        }
      }
      COHLS_EXPECT(pinned_device >= 0,
                   "a pinned operation's device must be a fixed device of the layer");
      COHLS_EXPECT(
          model::is_compatible(op, *device_config_[static_cast<std::size_t>(pinned_device)]),
          "a pinned operation must be compatible with its pinned device");
      for (int j = 0; j < device_count(); ++j) {
        const double fixed = j == pinned_device ? 1.0 : 0.0;
        model_.lp().set_bounds(binding_var(i, j), fixed, fixed);
      }
    }
  }
}

// Constraint (9), with the refinement that co-located pairs pay no
// transport: st_c >= st_p + dur_p + t_e * (1 - same_pc), where same_pc is a
// linearized same-device indicator.
void IlpLayerModel::add_dependencies() {
  for (const OperationId child_id : inputs_.ops) {
    const model::Operation& child = assay_.operation(child_id);
    const int c = op_index(child_id);
    for (const EdgeId edge : child.parent_edges()) {
      const OperationId parent_id = assay_.edge_parent(edge);
      if (in_layer_.count(parent_id)) {
        const int p = op_index(parent_id);
        COHLS_EXPECT(!assay_.operation(parent_id).indeterminate(),
                     "indeterminate operations must not have same-layer children");
        const double dur_p =
            static_cast<double>(assay_.operation(parent_id).duration().count());
        const double t = static_cast<double>(transport_.edge_time(edge).count());
        if (t == 0.0) {
          model_.add_constraint({{start_var(c), 1.0}, {start_var(p), -1.0}},
                                lp::RowSense::GreaterEqual, dur_p);
          continue;
        }
        // same = sum_j z_j with z_j <= o_d[p][j], z_j <= o_d[c][j].
        const lp::Col same = model_.add_variable(milp::VarKind::Continuous, 0.0, 1.0, 0.0);
        DepVars dep{p, c, same, {}};
        std::vector<lp::Term> same_sum{{same, 1.0}};
        for (int j = 0; j < device_count(); ++j) {
          const lp::Col z = model_.add_variable(milp::VarKind::Continuous, 0.0, 1.0, 0.0);
          model_.add_constraint({{z, 1.0}, {binding_var(p, j), -1.0}},
                                lp::RowSense::LessEqual, 0.0);
          model_.add_constraint({{z, 1.0}, {binding_var(c, j), -1.0}},
                                lp::RowSense::LessEqual, 0.0);
          same_sum.emplace_back(z, -1.0);
          dep.z.push_back(z);
        }
        dep_vars_.push_back(std::move(dep));
        model_.add_constraint(std::move(same_sum), lp::RowSense::LessEqual, 0.0);
        // st_c - st_p - t*same >= dur_p + t ... rearranged:
        model_.add_constraint(
            {{start_var(c), 1.0}, {start_var(p), -1.0}, {same, -t}},
            lp::RowSense::GreaterEqual, dur_p + t);
      } else {
        // Cross-layer parent: the inherited reagent must arrive first.
        const double t = static_cast<double>(transport_.edge_time(edge).count());
        if (t == 0.0) {
          continue;
        }
        const DeviceId prior = inputs_.prior_binding.device(parent_id);
        int parent_device = -1;
        if (prior.valid()) {
          for (std::size_t f = 0; f < fixed_ids_.size(); ++f) {
            if (fixed_ids_[f] == prior) {
              parent_device = static_cast<int>(f);
              break;
            }
          }
        }
        if (parent_device >= 0) {
          // st_c >= t * (1 - o_d[c][parent_device])
          model_.add_constraint(
              {{start_var(c), 1.0}, {binding_var(c, parent_device), t}},
              lp::RowSense::GreaterEqual, t);
        } else {
          model_.add_constraint({{start_var(c), 1.0}}, lp::RowSense::GreaterEqual, t);
        }
      }
    }
  }
}

// Constraints (10)-(13). Occupation of an operation includes its
// conservative outgoing-transport reserve, matching the heuristic engine.
// Two tightenings over the paper's literal formulation: the big-M constants
// are per-pair (from the start windows, not the global horizon), and q
// binaries the dependency structure or the windows already decide are fixed
// outright — both shrink the LP-relaxation gap that made the root bound
// near-useless on the Table-2 layer instances.
void IlpLayerModel::add_conflicts() {
  const int n = static_cast<int>(inputs_.ops.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const OperationId id_a = inputs_.ops[static_cast<std::size_t>(a)];
      const OperationId id_b = inputs_.ops[static_cast<std::size_t>(b)];
      const double dur_a = static_cast<double>(assay_.operation(id_a).duration().count());
      const double dur_b = static_cast<double>(assay_.operation(id_b).duration().count());
      const double occ_a = occupation(a);
      const double occ_b = occupation(b);
      const double est_a = est_[static_cast<std::size_t>(a)];
      const double est_b = est_[static_cast<std::size_t>(b)];
      const double lst_a = lst_[static_cast<std::size_t>(a)];
      const double lst_b = lst_[static_cast<std::size_t>(b)];
      const lp::Col q0 = model_.add_binary(0.0);
      const lp::Col q1 = model_.add_binary(0.0);
      const lp::Col q2 = model_.add_binary(0.0);
      // (10): q0 = 0 forces a to start after b's occupation ends. At q0 = 1
      // the row must hold for every feasible start pair, which needs exactly
      // M0 >= occ_b + lst_b - est_a.
      const double m0 = std::max(0.0, occ_b + lst_b - est_a);
      model_.add_constraint({{start_var(a), 1.0}, {q0, m0}, {start_var(b), -1.0}},
                            lp::RowSense::GreaterEqual, occ_b);
      // (11): q1 = 0 forces a's occupation to end before b starts; vacuity
      // at q1 = 1 needs M1 >= occ_a + lst_a - est_b.
      const double m1 = std::max(0.0, occ_a + lst_a - est_b);
      model_.add_constraint({{start_var(a), 1.0}, {q1, -m1}, {start_var(b), -1.0}},
                            lp::RowSense::LessEqual, -occ_a);
      // (12): q2 = 0 forces distinct devices.
      for (int j = 0; j < device_count(); ++j) {
        model_.add_constraint(
            {{binding_var(a, j), 1.0}, {binding_var(b, j), 1.0}, {q2, -1.0}},
            lp::RowSense::LessEqual, 1.0);
      }
      // (13): at least one of the three must be zero.
      model_.add_constraint({{q0, 1.0}, {q1, 1.0}, {q2, 1.0}}, lp::RowSense::LessEqual, 2.0);

      // Structural fixings: "a after b" is impossible when a precedes b or
      // the windows leave no room for it, so q0 = 1 — symmetrically for q1.
      // When both orders are impossible the occupations always overlap and
      // (13) forces distinct devices: q2 = 0.
      const bool a_after_b_impossible =
          (precedes(a, b) && dur_a + occ_b > 0.0) || lst_a < est_b + occ_b - 1e-9;
      const bool a_before_b_impossible =
          (precedes(b, a) && dur_b + occ_a > 0.0) || lst_b < est_a + occ_a - 1e-9;
      if (a_after_b_impossible) {
        model_.lp().set_bounds(q0, 1.0, 1.0);
      }
      if (a_before_b_impossible) {
        model_.lp().set_bounds(q1, 1.0, 1.0);
      }
      if (a_after_b_impossible && a_before_b_impossible) {
        model_.lp().set_bounds(q2, 0.0, 0.0);
      }
      conflict_vars_.emplace(std::make_pair(a, b), std::array<lp::Col, 3>{q0, q1, q2});
    }
  }
}

// LP-strengthening cuts the disjunction alone cannot express:
//   - clique cuts: operations whose windows force pairwise overlap must sit
//     on pairwise-distinct devices; for a clique of three or more, the sum
//     of their binding binaries per device is at most one (the pairwise (12)
//     rows only give fractional strength 1/2 each);
//   - device-capacity cuts: occupations on one device are disjoint and end
//     by makespan + reserve, so their total length bounds the makespan from
//     below per device.
void IlpLayerModel::add_clique_cuts() {
  const int n = static_cast<int>(inputs_.ops.size());

  std::set<std::vector<int>> cliques;
  for (int seed = 0; seed < n; ++seed) {
    std::vector<int> members{seed};
    for (int next = 0; next < n; ++next) {
      if (next == seed) {
        continue;
      }
      const bool overlaps_all =
          std::all_of(members.begin(), members.end(), [&](int m) {
            return must_overlap(std::min(m, next), std::max(m, next));
          });
      if (overlaps_all) {
        members.push_back(next);
      }
    }
    if (members.size() >= 3) {
      std::sort(members.begin(), members.end());
      cliques.insert(std::move(members));
    }
  }
  for (const std::vector<int>& clique : cliques) {
    for (int j = 0; j < device_count(); ++j) {
      std::vector<lp::Term> terms;
      for (const int i : clique) {
        terms.emplace_back(binding_var(i, j), 1.0);
      }
      model_.add_constraint(std::move(terms), lp::RowSense::LessEqual, 1.0);
    }
  }

  double max_reserve = 0.0;
  for (int i = 0; i < n; ++i) {
    const double dur = static_cast<double>(
        assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]).duration().count());
    max_reserve = std::max(max_reserve, occupation(i) - dur);
  }
  for (int j = 0; j < device_count(); ++j) {
    std::vector<lp::Term> terms;
    for (int i = 0; i < n; ++i) {
      terms.emplace_back(binding_var(i, j), occupation(i));
    }
    terms.emplace_back(makespan_, -1.0);
    model_.add_constraint(std::move(terms), lp::RowSense::LessEqual, max_reserve);
  }
}

// Constraint (14) plus the parallel-execution rule for indeterminate
// operations.
void IlpLayerModel::add_indeterminate_rules() {
  std::vector<int> indeterminate;
  for (const OperationId id : inputs_.ops) {
    if (assay_.operation(id).indeterminate()) {
      indeterminate.push_back(op_index(id));
    }
  }
  for (const int i : indeterminate) {
    const double min_dur = static_cast<double>(
        assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]).duration().count());
    for (std::size_t a = 0; a < inputs_.ops.size(); ++a) {
      if (static_cast<int>(a) == i) {
        continue;
      }
      // st_a <= st_i + dur_i.
      model_.add_constraint(
          {{start_var(static_cast<int>(a)), 1.0}, {start_var(i), -1.0}},
          lp::RowSense::LessEqual, min_dur);
    }
  }
  // "Indeterminate operations are mapped to different devices to allow
  // parallel execution."
  if (indeterminate.size() > 1) {
    for (int j = 0; j < device_count(); ++j) {
      std::vector<lp::Term> terms;
      for (const int i : indeterminate) {
        terms.emplace_back(binding_var(i, j), 1.0);
      }
      model_.add_constraint(std::move(terms), lp::RowSense::LessEqual, 1.0);
    }
  }
}

// (15) makespan, (16)-(20) area/processing of new slots, (21) paths.
void IlpLayerModel::add_objective_sums() {
  // (15): sum_t >= st_i + dur_i for every operation.
  for (std::size_t i = 0; i < inputs_.ops.size(); ++i) {
    const double dur =
        static_cast<double>(assay_.operation(inputs_.ops[i]).duration().count());
    model_.add_constraint({{makespan_, 1.0}, {start_var(static_cast<int>(i)), -1.0}},
                          lp::RowSense::GreaterEqual, dur);
  }

  // (16)-(20): configuration costs of new slots, folded into the objective
  // coefficients. area(cfg) = chamber_area(cap) + w * (ring_area - chamber),
  // likewise for container processing; accessory processing per accessory.
  int slot = 0;
  for (int j = 0; j < device_count(); ++j) {
    if (device_kind_[static_cast<std::size_t>(j)] != SlotKind::New) {
      continue;
    }
    NewSlotVars& vars = new_slot_vars_[static_cast<std::size_t>(slot++)];
    // cost_j >= C_a * area + C_pr * processing of the chosen configuration,
    // expressed through an epigraph variable with objective coefficient 1
    // (minimization pins it to the configuration cost).
    vars.cost = model_.add_variable(milp::VarKind::Continuous, 0.0, lp::kInfinity, 1.0);
    std::vector<lp::Term> defn{{vars.cost, 1.0}};
    for (const model::Capacity cap : model::kAllCapacities) {
      const double chamber_part =
          costs_.weight_area() * costs_.area(model::ContainerKind::Chamber, cap) +
          costs_.weight_processing() *
              costs_.container_processing(model::ContainerKind::Chamber, cap);
      const double ring_part =
          costs_.weight_area() * costs_.area(model::ContainerKind::Ring, cap) +
          costs_.weight_processing() *
              costs_.container_processing(model::ContainerKind::Ring, cap);
      defn.emplace_back(vars.capacity[static_cast<std::size_t>(cap)], -chamber_part);
      defn.emplace_back(vars.ring_extra[static_cast<std::size_t>(cap)],
                        -(ring_part - chamber_part));
    }
    for (const auto& [acc, col] : vars.accessories) {
      defn.emplace_back(col,
                        -costs_.weight_processing() * assay_.registry().processing_cost(acc));
    }
    model_.add_constraint(std::move(defn), lp::RowSense::GreaterEqual, 0.0);
  }

  // (21): path counting over unordered visible-device pairs. Pairs of fixed
  // devices whose path already exists cost nothing.
  const auto path_var = [this](int j1, int j2) -> lp::Col {
    const auto key = j1 < j2 ? std::make_pair(j1, j2) : std::make_pair(j2, j1);
    const auto it = path_vars_.find(key);
    if (it != path_vars_.end()) {
      return it->second;
    }
    double cost = costs_.weight_paths();
    if (device_kind_[static_cast<std::size_t>(j1)] == SlotKind::Fixed &&
        device_kind_[static_cast<std::size_t>(j2)] == SlotKind::Fixed) {
      if (inputs_.existing_paths.contains(fixed_ids_[static_cast<std::size_t>(j1)],
                                          fixed_ids_[static_cast<std::size_t>(j2)])) {
        cost = 0.0;
      }
    }
    const lp::Col col = model_.add_binary(cost);
    path_vars_.emplace(key, col);
    return col;
  };

  for (const OperationId child_id : inputs_.ops) {
    const int c = op_index(child_id);
    for (const OperationId parent_id : assay_.operation(child_id).parents()) {
      if (in_layer_.count(parent_id)) {
        const int p = op_index(parent_id);
        for (int j1 = 0; j1 < device_count(); ++j1) {
          for (int j2 = 0; j2 < device_count(); ++j2) {
            if (j1 == j2) {
              continue;
            }
            // o_d[p][j1] + o_d[c][j2] - 1 <= p_{j1,j2}
            model_.add_constraint({{binding_var(p, j1), 1.0},
                                   {binding_var(c, j2), 1.0},
                                   {path_var(j1, j2), -1.0}},
                                  lp::RowSense::LessEqual, 1.0);
          }
        }
      } else {
        const DeviceId prior = inputs_.prior_binding.device(parent_id);
        if (!prior.valid()) {
          continue;
        }
        int parent_device = -1;
        for (std::size_t f = 0; f < fixed_ids_.size(); ++f) {
          if (fixed_ids_[f] == prior) {
            parent_device = static_cast<int>(f);
            break;
          }
        }
        if (parent_device < 0) {
          continue;
        }
        for (int j = 0; j < device_count(); ++j) {
          if (j == parent_device) {
            continue;
          }
          // Binding the child elsewhere uses (and may create) the path.
          model_.add_constraint(
              {{binding_var(c, j), 1.0}, {path_var(parent_device, j), -1.0}},
              lp::RowSense::LessEqual, 0.0);
        }
      }
    }
  }
}

double IlpLayerModel::min_new_slot_cost(const model::Operation& op) const {
  double best = std::numeric_limits<double>::infinity();
  for (const model::DeviceConfig& config : model::admissible_configs(op)) {
    best = std::min(best,
                    costs_.weight_area() * model::device_area(config, costs_) +
                        costs_.weight_processing() *
                            model::device_processing(config, costs_, assay_.registry()));
  }
  return std::isfinite(best) ? best : 0.0;
}

// Configuration-cost floors the epigraph rows (16)-(20) only enforce at
// integral configuration binaries: an operation bound to a new slot forces
// that slot's cost to at least its cheapest compatible configuration. For
// the indeterminate set the parallel-device rule admits at most one member
// per slot, so their floors sum within one row — which is what lifts the
// root LP of cost-dominated all-indeterminate layers from the critical path
// to (near-)exact. Every other operation gets a singleton floor row.
void IlpLayerModel::add_cost_floor_cuts() {
  const int n = static_cast<int>(inputs_.ops.size());
  std::vector<double> floor_cost(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> indeterminate(static_cast<std::size_t>(n), false);
  bool any_indeterminate = false;
  for (int i = 0; i < n; ++i) {
    const model::Operation& op = assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]);
    floor_cost[static_cast<std::size_t>(i)] = min_new_slot_cost(op);
    indeterminate[static_cast<std::size_t>(i)] = op.indeterminate();
    any_indeterminate = any_indeterminate || op.indeterminate();
  }

  int slot = 0;
  for (int j = 0; j < device_count(); ++j) {
    if (device_kind_[static_cast<std::size_t>(j)] != SlotKind::New) {
      continue;
    }
    const NewSlotVars& vars = new_slot_vars_[static_cast<std::size_t>(slot++)];
    if (any_indeterminate) {
      std::vector<lp::Term> agg{{vars.cost, 1.0}};
      for (int i = 0; i < n; ++i) {
        if (indeterminate[static_cast<std::size_t>(i)] &&
            floor_cost[static_cast<std::size_t>(i)] > 0.0) {
          agg.emplace_back(binding_var(i, j), -floor_cost[static_cast<std::size_t>(i)]);
        }
      }
      if (agg.size() > 1) {
        model_.add_constraint(std::move(agg), lp::RowSense::GreaterEqual, 0.0);
      }
    }
    for (int i = 0; i < n; ++i) {
      if (indeterminate[static_cast<std::size_t>(i)] ||
          floor_cost[static_cast<std::size_t>(i)] <= 0.0) {
        continue;
      }
      model_.add_constraint(
          {{vars.cost, 1.0}, {binding_var(i, j), -floor_cost[static_cast<std::size_t>(i)]}},
          lp::RowSense::GreaterEqual, 0.0);
    }
  }
}

std::shared_ptr<const milp::NodeBoundProvider> IlpLayerModel::bound_provider() const {
  if (device_count() > 64) {
    return nullptr;  // SchedulingBounds packs device sets into a 64-bit mask
  }
  milp::SchedulingBounds::Config config;
  const int n = static_cast<int>(inputs_.ops.size());
  for (int i = 0; i < n; ++i) {
    milp::SchedulingBounds::Task task;
    task.start = start_[static_cast<std::size_t>(i)];
    task.occupation = occupation(i);
    task.duration = static_cast<double>(
        assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]).duration().count());
    task.binding = binding_[static_cast<std::size_t>(i)];
    config.tasks.push_back(std::move(task));
  }
  config.makespan = makespan_;
  config.makespan_weight = costs_.weight_time();
  for (const SlotKind kind : device_kind_) {
    (kind == SlotKind::New ? config.new_devices : config.free_devices) += 1;
  }
  if (config.new_devices > 0) {
    // The cheapest configuration any used new slot can take (accessories
    // only add cost).
    double min_cost = std::numeric_limits<double>::infinity();
    for (const model::ContainerKind container :
         {model::ContainerKind::Ring, model::ContainerKind::Chamber}) {
      for (const model::Capacity cap : model::kAllCapacities) {
        if (!model::capacity_allowed(container, cap)) {
          continue;
        }
        min_cost = std::min(
            min_cost, costs_.weight_area() * costs_.area(container, cap) +
                          costs_.weight_processing() *
                              costs_.container_processing(container, cap));
      }
    }
    config.min_new_device_cost = min_cost;
    // The slot-cost epigraph columns are the objective's payment for new
    // devices; the provider charges min_new_device_cost per used slot
    // instead, so it must not also count their box bounds.
    for (const NewSlotVars& vars : new_slot_vars_) {
      config.new_device_cols.push_back(vars.cost);
    }
  }
  // Task-level refinement: each operation's cheapest compatible new-slot
  // configuration, the indeterminate set (pairwise-distinct devices), and
  // which slots cost nothing — the provider sums the distinct tasks' floors.
  for (int i = 0; i < n; ++i) {
    const model::Operation& op = assay_.operation(inputs_.ops[static_cast<std::size_t>(i)]);
    config.task_new_cost.push_back(min_new_slot_cost(op));
    if (op.indeterminate()) {
      config.distinct_tasks.push_back(i);
    }
  }
  for (int j = 0; j < device_count(); ++j) {
    if (device_kind_[static_cast<std::size_t>(j)] != SlotKind::New) {
      config.free_slot_mask |= milp::DeviceMask{1} << j;
    }
  }
  config.objective.resize(static_cast<std::size_t>(model_.variable_count()));
  for (lp::Col c = 0; c < model_.variable_count(); ++c) {
    config.objective[static_cast<std::size_t>(c)] = model_.lp().objective_coefficient(c);
  }
  return std::make_shared<milp::SchedulingBounds>(std::move(config));
}

std::vector<double> IlpLayerModel::encode(const schedule::LayerResult& result,
                                          const model::DeviceInventory& inventory) const {
  const int n = static_cast<int>(inputs_.ops.size());
  if (static_cast<int>(result.schedule.items.size()) != n) {
    return {};
  }
  std::vector<double> x(static_cast<std::size_t>(model_.variable_count()), 0.0);

  // Map every scheduled device id onto a visible slot: fixed devices by id,
  // heuristic-instantiated devices onto a hint slot with the identical
  // configuration first (the model charges those nothing, like the
  // heuristic's hint accounting), then onto a free new slot.
  std::map<DeviceId, int> slot_of;
  std::map<int, model::DeviceConfig> slot_config;
  for (std::size_t f = 0; f < fixed_ids_.size(); ++f) {
    slot_of[fixed_ids_[f]] = static_cast<int>(f);
  }
  std::vector<bool> taken(static_cast<std::size_t>(device_count()), false);
  for (const auto& item : result.schedule.items) {
    if (slot_of.count(item.device)) {
      continue;
    }
    const model::DeviceConfig config = inventory.device(item.device).config;
    int chosen = -1;
    for (int j = 0; j < device_count() && chosen < 0; ++j) {
      if (device_kind_[static_cast<std::size_t>(j)] == SlotKind::Hint &&
          !taken[static_cast<std::size_t>(j)] &&
          *device_config_[static_cast<std::size_t>(j)] == config) {
        chosen = j;
      }
    }
    for (int j = 0; j < device_count() && chosen < 0; ++j) {
      if (device_kind_[static_cast<std::size_t>(j)] == SlotKind::New &&
          !taken[static_cast<std::size_t>(j)]) {
        chosen = j;
      }
    }
    if (chosen < 0) {
      return {};  // more heuristic devices than the model has slots
    }
    taken[static_cast<std::size_t>(chosen)] = true;
    slot_of[item.device] = chosen;
    slot_config.emplace(chosen, config);
  }

  // Bindings, starts, makespan.
  std::vector<int> device_of(static_cast<std::size_t>(n), -1);
  double makespan = 0.0;
  for (const auto& item : result.schedule.items) {
    const int i = op_index(item.op);
    const int j = slot_of.at(item.device);
    device_of[static_cast<std::size_t>(i)] = j;
    x[static_cast<std::size_t>(binding_var(i, j))] = 1.0;
    x[static_cast<std::size_t>(start_var(i))] = static_cast<double>(item.start.count());
    makespan = std::max(makespan,
                        static_cast<double>((item.start + item.duration).count()));
  }
  if (makespan > horizon_ + 1e-9) {
    return {};
  }
  x[static_cast<std::size_t>(makespan_)] = makespan;

  // Configuration variables of the new slots actually used.
  int slot = 0;
  for (int j = 0; j < device_count(); ++j) {
    if (device_kind_[static_cast<std::size_t>(j)] != SlotKind::New) {
      continue;
    }
    const NewSlotVars& vars = new_slot_vars_[static_cast<std::size_t>(slot++)];
    const auto cfg = slot_config.find(j);
    if (cfg == slot_config.end()) {
      continue;  // unused slot: all zeros
    }
    const model::DeviceConfig& config = cfg->second;
    const bool ring = config.container == model::ContainerKind::Ring;
    x[static_cast<std::size_t>(vars.used)] = 1.0;
    x[static_cast<std::size_t>(ring ? vars.ring : vars.chamber)] = 1.0;
    x[static_cast<std::size_t>(vars.capacity[static_cast<std::size_t>(config.capacity)])] =
        1.0;
    if (ring) {
      x[static_cast<std::size_t>(
          vars.ring_extra[static_cast<std::size_t>(config.capacity)])] = 1.0;
    }
    double cost =
        costs_.weight_area() * costs_.area(config.container, config.capacity) +
        costs_.weight_processing() *
            costs_.container_processing(config.container, config.capacity);
    // Accessories outside the model's relevant set only add cost; dropping
    // them keeps the point feasible (no operation requires them).
    for (const auto& [acc, col] : vars.accessories) {
      if (config.accessories.contains(acc)) {
        x[static_cast<std::size_t>(col)] = 1.0;
        cost += costs_.weight_processing() * assay_.registry().processing_cost(acc);
      }
    }
    x[static_cast<std::size_t>(vars.cost)] = cost;
  }

  // Same-device linearizations of transported dependencies. The z / same
  // columns are only bounded from ABOVE (z <= o_p, z <= o_c, same <= sum z)
  // and the dep rows charge the transport term regardless of co-location
  // (the occupation reserve spans the outgoing transport, so a realized
  // schedule never starts a same-device child earlier than st_p + dur_p + t
  // either). Zero is therefore always feasible, while sum_j min(o_p, o_c)
  // can overshoot a dep row at the realized start times.
  for (const DepVars& dep : dep_vars_) {
    for (int j = 0; j < device_count(); ++j) {
      x[static_cast<std::size_t>(dep.z[static_cast<std::size_t>(j)])] = 0.0;
    }
    x[static_cast<std::size_t>(dep.same)] = 0.0;
  }

  // Conflict disjunction binaries from the realized schedule.
  for (const auto& [pair, q] : conflict_vars_) {
    const int a = pair.first;
    const int b = pair.second;
    const double st_a = x[static_cast<std::size_t>(start_var(a))];
    const double st_b = x[static_cast<std::size_t>(start_var(b))];
    const double q0 = st_a - st_b >= occupation(b) - 1e-9 ? 0.0 : 1.0;
    const double q1 = st_b - st_a >= occupation(a) - 1e-9 ? 0.0 : 1.0;
    const double q2 = device_of[static_cast<std::size_t>(a)] ==
                              device_of[static_cast<std::size_t>(b)]
                          ? 1.0
                          : 0.0;
    if (q0 + q1 + q2 > 2.5) {
      return {};  // occupations overlap on one device; not encodable
    }
    x[static_cast<std::size_t>(q[0])] = q0;
    x[static_cast<std::size_t>(q[1])] = q1;
    x[static_cast<std::size_t>(q[2])] = q2;
  }

  // Paths the realized binding uses.
  const auto use_path = [&](int j1, int j2) {
    const auto key = j1 < j2 ? std::make_pair(j1, j2) : std::make_pair(j2, j1);
    const auto it = path_vars_.find(key);
    if (it != path_vars_.end()) {
      x[static_cast<std::size_t>(it->second)] = 1.0;
    }
  };
  for (const OperationId child_id : inputs_.ops) {
    const int c = op_index(child_id);
    for (const OperationId parent_id : assay_.operation(child_id).parents()) {
      if (in_layer_.count(parent_id)) {
        const int p = op_index(parent_id);
        if (device_of[static_cast<std::size_t>(p)] != device_of[static_cast<std::size_t>(c)]) {
          use_path(device_of[static_cast<std::size_t>(p)],
                   device_of[static_cast<std::size_t>(c)]);
        }
      } else {
        const DeviceId prior = inputs_.prior_binding.device(parent_id);
        if (!prior.valid()) {
          continue;
        }
        const auto parent_slot = slot_of.find(prior);
        if (parent_slot != slot_of.end() &&
            parent_slot->second != device_of[static_cast<std::size_t>(c)]) {
          use_path(parent_slot->second, device_of[static_cast<std::size_t>(c)]);
        }
      }
    }
  }
  return x;
}

schedule::LayerResult IlpLayerModel::decode(const std::vector<double>& solution,
                                            model::DeviceInventory& inventory) const {
  COHLS_EXPECT(static_cast<int>(solution.size()) == model_.variable_count(),
               "solution arity must match the model");
  schedule::LayerResult result;
  result.schedule.layer = inputs_.layer;

  const auto value = [&solution](lp::Col col) {
    return solution[static_cast<std::size_t>(col)];
  };
  const auto chosen = [&](int i, int j) { return value(binding_var(i, j)) > 0.5; };

  // Which non-fixed devices are actually used?
  std::vector<DeviceId> realized(static_cast<std::size_t>(device_count()));
  for (std::size_t f = 0; f < fixed_ids_.size(); ++f) {
    realized[f] = fixed_ids_[f];
  }
  int slot = 0;
  for (int j = 0; j < device_count(); ++j) {
    const SlotKind kind = device_kind_[static_cast<std::size_t>(j)];
    if (kind == SlotKind::Fixed) {
      continue;
    }
    bool used = false;
    for (std::size_t i = 0; i < inputs_.ops.size(); ++i) {
      if (chosen(static_cast<int>(i), j)) {
        used = true;
        break;
      }
    }
    if (kind == SlotKind::New) {
      if (used) {
        const NewSlotVars& vars = new_slot_vars_[static_cast<std::size_t>(slot)];
        model::DeviceConfig config;
        config.container = value(vars.ring) > 0.5 ? model::ContainerKind::Ring
                                                  : model::ContainerKind::Chamber;
        for (const model::Capacity cap : model::kAllCapacities) {
          if (value(vars.capacity[static_cast<std::size_t>(cap)]) > 0.5) {
            config.capacity = cap;
          }
        }
        for (const auto& [acc, col] : vars.accessories) {
          if (value(col) > 0.5) {
            config.accessories.insert(acc);
          }
        }
        realized[static_cast<std::size_t>(j)] = inventory.instantiate(config, inputs_.layer);
      }
      ++slot;
    } else if (used) {  // hint
      const std::size_t hint_index = static_cast<std::size_t>(j) - fixed_ids_.size();
      realized[static_cast<std::size_t>(j)] =
          inventory.instantiate(inputs_.hints[hint_index].config, inputs_.layer);
      result.consumed_hints.push_back(inputs_.hints[hint_index].key);
    }
  }

  for (std::size_t i = 0; i < inputs_.ops.size(); ++i) {
    const OperationId id = inputs_.ops[i];
    int device = -1;
    for (int j = 0; j < device_count(); ++j) {
      if (chosen(static_cast<int>(i), j)) {
        device = j;
        break;
      }
    }
    COHLS_ASSERT(device >= 0, "decoded solution leaves an operation unbound");
    const Minutes start{static_cast<std::int64_t>(
        std::llround(value(start_var(static_cast<int>(i)))))};
    result.schedule.items.push_back(
        schedule::ScheduledOperation{id, realized[static_cast<std::size_t>(device)], start,
                                     assay_.operation(id).duration(), Minutes{0}});
  }

  // Reporting: actual outgoing transport per item, given the final binding.
  for (auto& item : result.schedule.items) {
    Minutes actual{0};
    for (const EdgeId edge : assay_.child_edges(item.op)) {
      const auto* child_item = result.schedule.find(assay_.edge_child(edge));
      if (child_item != nullptr && child_item->device != item.device) {
        actual = std::max(actual, transport_.edge_time(edge));
      }
    }
    item.transport = actual;
  }
  return result;
}

}  // namespace cohls::core
