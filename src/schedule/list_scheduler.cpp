#include "schedule/list_scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "util/check.hpp"

namespace cohls::schedule {

namespace {

struct DeviceState {
  DeviceId id;
  model::DeviceConfig config;
  Minutes available{0};
  /// Claimed by an indeterminate operation of this layer.
  bool indeterminate = false;
};

/// Per-operation state of the layer, indexed by the operation's position in
/// the sorted layer (see LayerScheduler::local).
struct OpState {
  const model::Operation* op = nullptr;
  /// Longest downstream duration chain within the layer (critical-path
  /// priority). Indeterminate operations contribute their minimum duration.
  Minutes priority{0};
  /// In-layer parents not placed yet (counted once per parent entry).
  int waiting_parents = 0;
  /// Some device of devices_ binds the operation. Devices are only ever
  /// added, so the flag only ever turns on.
  bool bound_somewhere = false;
  bool placed = false;
  DeviceId device;  // when placed
  Minutes end{0};   // when placed
};

/// A parent whose output the operation being placed consumes: the start it
/// imposes on the same device and on any other device.
struct ParentLink {
  DeviceId device;
  Minutes same_device{0};
  Minutes other_device{0};
};

class LayerScheduler {
 public:
  LayerScheduler(const LayerRequest& request, const model::Assay& assay,
                 const TransportPlan& transport, const model::CostModel& costs,
                 model::DeviceInventory& inventory)
      : request_(request),
        assay_(assay),
        transport_(transport),
        costs_(costs),
        inventory_(inventory),
        ops_(request.ops),
        binds_(request.binds ? request.binds
                             : [](const model::Operation& op,
                                  const model::DeviceConfig& config) {
                                 return model::is_compatible(op, config);
                               }) {
    std::sort(ops_.begin(), ops_.end());
    ops_.erase(std::unique(ops_.begin(), ops_.end()), ops_.end());
    for (const DeviceId id : request.usable_devices) {
      devices_.push_back(DeviceState{id, inventory.device(id).config, Minutes{0}});
    }
    hint_consumed_.assign(request.hints.size(), false);
    state_.resize(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      OpState& s = state_[i];
      s.op = &assay_.operation(ops_[i]);
      for (const OperationId parent : s.op->parents()) {
        if (local(parent) >= 0) {
          ++s.waiting_parents;
        }
      }
      s.bound_somewhere =
          std::any_of(devices_.begin(), devices_.end(),
                      [&](const DeviceState& d) { return binds_(*s.op, d.config); });
    }
    // Children always carry larger ids than their parents, so a reverse
    // sweep over the sorted layer sees children before parents.
    for (std::size_t i = ops_.size(); i-- > 0;) {
      Minutes best{0};
      for (const OperationId child : assay_.children(ops_[i])) {
        const int c = local(child);
        if (c >= 0) {
          best = std::max(best, state_[static_cast<std::size_t>(c)].priority);
        }
      }
      state_[i].priority = best + state_[i].op->duration();
    }
    walk_mark_.assign(static_cast<std::size_t>(assay_.operation_count()), false);
  }

  LayerResult run() {
    LayerResult result;
    result.schedule.layer = request_.layer;

    std::vector<OperationId> indeterminate;
    for (const OperationId id : request_.ops) {
      if (assay_.operation(id).indeterminate()) {
        indeterminate.push_back(id);
      }
    }

    place_determinate(result);
    place_indeterminate(indeterminate, result);
    fill_transport_fields(result.schedule);
    return result;
  }

 private:
  /// Position of `id` in the sorted layer, or -1 when it is not in the layer.
  int local(OperationId id) const {
    const auto it = std::lower_bound(ops_.begin(), ops_.end(), id);
    return it != ops_.end() && *it == id ? static_cast<int>(it - ops_.begin()) : -1;
  }

  OpState& state(OperationId id) {
    const int i = local(id);
    COHLS_ASSERT(i >= 0, "operation is not in the layer");
    return state_[static_cast<std::size_t>(i)];
  }

  /// Rounds a start time up to the next slot boundary when fixed-time-slot
  /// scheduling is requested.
  Minutes quantize(Minutes start) const {
    const std::int64_t slot = request_.slot_size.count();
    if (slot <= 0) {
      return start;
    }
    return Minutes{(start.count() + slot - 1) / slot * slot};
  }

  // ---- the operation being placed ------------------------------------------
  /// Loads parent_links_ and parent_devices_ (sorted, distinct) for `id`
  /// under the current partial binding: placed parents of this layer and
  /// parents bound by earlier layers.
  void load_parents(OperationId id) {
    parent_links_.clear();
    parent_devices_.clear();
    for (const OperationId parent : assay_.operation(id).parents()) {
      const int p = local(parent);
      if (p >= 0 && state_[static_cast<std::size_t>(p)].placed) {
        const OpState& placed = state_[static_cast<std::size_t>(p)];
        parent_links_.push_back(ParentLink{placed.device, placed.end,
                                           placed.end + transport_.edge_time(parent, id)});
        parent_devices_.push_back(placed.device);
        continue;
      }
      const auto prior = request_.prior_binding.find(parent);
      if (prior != request_.prior_binding.end()) {
        // Reagent inherited across the layer boundary must be moved first
        // unless the operation stays on its device.
        parent_links_.push_back(
            ParentLink{prior->second, Minutes{0}, transport_.edge_time(parent, id)});
        parent_devices_.push_back(prior->second);
      }
    }
    std::sort(parent_devices_.begin(), parent_devices_.end());
    parent_devices_.erase(std::unique(parent_devices_.begin(), parent_devices_.end()),
                          parent_devices_.end());
  }

  /// Loads descendants_: every descendant of `id`, in this layer or later
  /// ones, once. None of them is placed: a descendant in this layer waits
  /// for `id` (determinate ones through the ready counts, and indeterminate
  /// operations have no descendants in their own layer), so the list is the
  /// unscheduled suffix the lookahead scores against.
  void load_descendants(OperationId id) {
    descendants_.clear();
    std::vector<OperationId>& frontier = walk_frontier_;
    frontier.assign(1, id);
    while (!frontier.empty()) {
      const OperationId current = frontier.back();
      frontier.pop_back();
      for (const OperationId child : assay_.children(current)) {
        if (walk_mark_[child.index()]) {
          continue;
        }
        walk_mark_[child.index()] = true;
        frontier.push_back(child);
        const int c = local(child);
        COHLS_ASSERT(c < 0 || !state_[static_cast<std::size_t>(c)].placed,
                     "a descendant of an unplaced operation is already placed");
        descendants_.push_back(&assay_.operation(child));
      }
    }
    for (const model::Operation* op : descendants_) {
      walk_mark_[op->id().index()] = false;
    }
  }

  /// Earliest start of the loaded operation on a device, honoring parent
  /// completions and incoming transport (constraint (9)). Fresh devices pass
  /// an invalid id (they can never host a parent).
  Minutes earliest_start(DeviceId device, Minutes available) const {
    Minutes start = available;
    for (const ParentLink& link : parent_links_) {
      start = std::max(start, device.valid() && link.device == device ? link.same_device
                                                                      : link.other_device);
    }
    return quantize(start);
  }

  bool has_path(const DevicePath& path) const {
    return request_.existing_paths.count(path) > 0 ||
           std::find(new_paths_.begin(), new_paths_.end(), path) != new_paths_.end();
  }

  /// Paths the loaded operation adds on a device; a fresh device (invalid
  /// id) needs one per distinct parent device.
  int new_paths_on(DeviceId device) const {
    if (!device.valid()) {
      return static_cast<int>(parent_devices_.size());
    }
    int count = 0;
    for (const DeviceId parent_device : parent_devices_) {
      if (parent_device != device && !has_path(make_path(parent_device, device))) {
        ++count;
      }
    }
    return count;
  }

  /// Worst-case outgoing transport of `id`: assume every same-layer child
  /// lands on another device. Reserving this up-front guarantees the device
  /// is free during any transfer the final binding actually needs.
  Minutes outgoing_reserve(OperationId id) const {
    Minutes reserve{0};
    for (const OperationId child : assay_.children(id)) {
      if (local(child) >= 0) {
        reserve = std::max(reserve, transport_.edge_time(id, child));
      }
    }
    return reserve;
  }

  // ---- capability reservation ---------------------------------------------
  /// Conservative count of inventory slots that must stay free for the
  /// *other* unplaced operations of this layer: one per distinct
  /// requirement signature no current device satisfies, plus one per
  /// indeterminate operation that cannot be matched to a distinct existing
  /// device. Spawning a device for parallelism is only allowed when it
  /// leaves at least this many slots.
  int slots_reserved_for_others(OperationId current) {
    std::vector<std::tuple<int, int, std::uint32_t>> unsatisfied_groups;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const OpState& s = state_[i];
      if (s.placed || s.bound_somewhere || s.op->indeterminate() || ops_[i] == current) {
        continue;
      }
      const model::Operation& op = *s.op;
      unsatisfied_groups.emplace_back(op.container() ? static_cast<int>(*op.container()) : -1,
                                      op.capacity() ? static_cast<int>(*op.capacity()) : -1,
                                      op.accessories().bits());
    }
    std::sort(unsatisfied_groups.begin(), unsatisfied_groups.end());
    const auto groups = std::unique(unsatisfied_groups.begin(), unsatisfied_groups.end()) -
                        unsatisfied_groups.begin();
    // While the determinate operations are placed, the unplaced
    // indeterminate ones and the devices' claims stay fixed, so the
    // matching only changes when a device is added.
    if (assay_.operation(current).indeterminate()) {
      return static_cast<int>(groups) + unmatched_indeterminate(current);
    }
    if (unmatched_indeterminate_ < 0) {
      unmatched_indeterminate_ = unmatched_indeterminate(current);
    }
    return static_cast<int>(groups) + unmatched_indeterminate_;
  }

  /// Unplaced indeterminate operations other than `current` left without a
  /// device by a greedy matching in id order: each needs its own device,
  /// distinct from those already claimed by other indeterminate operations.
  int unmatched_indeterminate(OperationId current) const {
    std::vector<DeviceId> matched;
    int unmatched = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const OpState& s = state_[i];
      if (s.placed || !s.op->indeterminate() || ops_[i] == current) {
        continue;
      }
      const auto free_match =
          std::find_if(devices_.begin(), devices_.end(), [&](const DeviceState& d) {
            return !d.indeterminate &&
                   std::find(matched.begin(), matched.end(), d.id) == matched.end() &&
                   binds_(*s.op, d.config);
          });
      if (free_match != devices_.end()) {
        matched.push_back(free_match->id);
      } else {
        ++unmatched;
      }
    }
    return unmatched;
  }

  /// When slots are scarce, a forced new device is *enriched*: it takes the
  /// union of the accessory needs of still-unsatisfied operations whose
  /// container/capacity requirements it can also honor, so one slot can
  /// unblock several requirement groups. Only applies to the
  /// component-oriented rule (custom new_config callers keep exact classes).
  model::DeviceConfig enrich_config(model::DeviceConfig config,
                                    OperationId current) const {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const OpState& s = state_[i];
      if (s.placed || s.bound_somewhere || ops_[i] == current) {
        continue;
      }
      const model::Operation& op = *s.op;
      if (op.container().has_value() && *op.container() != config.container) {
        continue;
      }
      if (op.capacity().has_value() && *op.capacity() != config.capacity) {
        continue;
      }
      config.accessories = config.accessories.united_with(op.accessories());
    }
    return config;
  }

  // ---- binding choice -----------------------------------------------------
  struct Choice {
    bool fresh = false;
    std::size_t device_index = 0;      // when !fresh
    model::DeviceConfig fresh_config;  // when fresh
    int hint_key = -1;                 // >= 0 when the fresh device is a hint
    std::size_t hint_index = 0;
    Minutes start{0};
    double score = 0.0;
  };

  /// Lookahead: unscheduled descendants (in this layer or later ones) that
  /// could run on the same device need no new path and no transport; half
  /// the path weight per such descendant rewards binding (or building)
  /// devices the pipeline can stay on.
  int hostable_descendants(const model::DeviceConfig& config) const {
    return static_cast<int>(std::count_if(
        descendants_.begin(), descendants_.end(),
        [&](const model::Operation* descendant) { return binds_(*descendant, config); }));
  }

  double base_score(OperationId id, DeviceId device, const model::DeviceConfig& config,
                    Minutes start) const {
    const Minutes completion = start + assay_.operation(id).duration();
    return costs_.weight_time() * static_cast<double>(completion.count()) +
           costs_.weight_paths() * new_paths_on(device) -
           0.5 * costs_.weight_paths() * hostable_descendants(config);
  }

  /// The component-oriented alternative to a minimal device: enrich the
  /// configuration with the accessory needs of the operation's descendants
  /// (across layer boundaries — devices persist) that the container and
  /// capacity can also honor, so the whole pipeline suffix can stay on one
  /// device. This is exactly the paper's integrated-device reality: mixers
  /// with cell-separation modules, heaters and optics on one ring
  /// (Fig. 1/2).
  model::DeviceConfig pipeline_config(model::DeviceConfig config) const {
    for (const model::Operation* op : descendants_) {
      if (op->container().has_value() && *op->container() != config.container) {
        continue;
      }
      if (op->capacity().has_value() && *op->capacity() != config.capacity) {
        continue;
      }
      config.accessories = config.accessories.united_with(op->accessories());
    }
    return config;
  }

  std::optional<Choice> best_choice(OperationId id, bool exclude_indeterminate_devices) {
    const model::Operation& op = assay_.operation(id);
    load_parents(id);
    load_descendants(id);
    // A pinned operation (recovery: it is physically mid-flight on that
    // device) considers no alternative binding — the pin overrides scoring
    // and the indeterminate-device exclusion alike.
    const auto pin = request_.pinned.find(id);
    if (pin != request_.pinned.end()) {
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        const DeviceState& d = devices_[i];
        if (d.id != pin->second) {
          continue;
        }
        if (!binds_(op, d.config)) {
          throw InfeasibleError("operation '" + op.name() +
                                "' is pinned to a device that cannot execute it");
        }
        Choice c;
        c.fresh = false;
        c.device_index = i;
        c.start = earliest_start(d.id, d.available);
        c.score = base_score(id, d.id, d.config, c.start);
        return c;
      }
      throw InfeasibleError("operation '" + op.name() +
                            "' is pinned to a device this layer cannot use");
    }
    std::optional<Choice> best;
    const auto offer = [&](const Choice& candidate) {
      if (!best || candidate.score < best->score - 1e-9) {
        best = candidate;
      }
    };

    bool reusable_exists = false;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      const DeviceState& d = devices_[i];
      if (!binds_(op, d.config)) {
        continue;
      }
      if (exclude_indeterminate_devices && d.indeterminate) {
        continue;
      }
      reusable_exists = true;
      Choice c;
      c.fresh = false;
      c.device_index = i;
      c.start = earliest_start(d.id, d.available);
      c.score = base_score(id, d.id, d.config, c.start);
      offer(c);
    }

    // Capability reservation: a fresh device for mere parallelism must not
    // consume a slot that a still-unsatisfied requirement group will need.
    const int slots_left = inventory_.max_devices() - inventory_.size();
    const bool slots_scarce = slots_left <= slots_reserved_for_others(id);
    const bool allow_fresh = request_.allow_new_devices && slots_left > 0 &&
                             (!reusable_exists || !slots_scarce);

    if (allow_fresh) {
      const Minutes fresh_start = earliest_start(DeviceId{}, Minutes{0});
      // Hinted configurations: a later layer integrates them anyway, so the
      // integration cost is already accounted for globally.
      for (std::size_t h = 0; h < request_.hints.size(); ++h) {
        if (hint_consumed_[h]) {
          continue;
        }
        const DeviceHint& hint = request_.hints[h];
        if (!binds_(op, hint.config)) {
          continue;
        }
        Choice c;
        c.fresh = true;
        c.fresh_config = hint.config;
        c.hint_key = hint.key;
        c.hint_index = h;
        c.start = fresh_start;
        c.score = base_score(id, DeviceId{}, hint.config, c.start);
        offer(c);
      }
      // Brand-new devices, at full integration cost. The component-oriented
      // rule offers both a minimal configuration and a pipeline-enriched one
      // (plus requirement-group enrichment under slot scarcity); custom
      // new_config callers (the conventional baseline) get exactly their
      // class configuration.
      std::vector<model::DeviceConfig> candidates;
      if (request_.new_config) {
        candidates.push_back(request_.new_config(op));
      } else {
        model::DeviceConfig minimal = model::minimal_config(op, costs_, assay_.registry());
        if (slots_scarce) {
          minimal = enrich_config(minimal, id);
        }
        candidates.push_back(minimal);
        const model::DeviceConfig piped = pipeline_config(candidates.front());
        if (!(piped == candidates.front())) {
          candidates.push_back(piped);
        }
      }
      for (const model::DeviceConfig& config : candidates) {
        if (!binds_(op, config)) {
          continue;
        }
        Choice c;
        c.fresh = true;
        c.fresh_config = config;
        c.start = fresh_start;
        c.score = base_score(id, DeviceId{}, config, c.start) +
                  costs_.weight_area() * model::device_area(config, costs_) +
                  costs_.weight_processing() *
                      model::device_processing(config, costs_, assay_.registry());
        offer(c);
      }
    }
    return best;
  }

  /// Turns a fresh choice into a real device; returns the devices_ index.
  std::size_t materialize(const Choice& choice, LayerResult& result) {
    if (!choice.fresh) {
      return choice.device_index;
    }
    const DeviceId id = inventory_.instantiate(choice.fresh_config, request_.layer);
    devices_.push_back(DeviceState{id, choice.fresh_config, Minutes{0}});
    unmatched_indeterminate_ = -1;
    for (OpState& s : state_) {
      if (!s.placed && !s.bound_somewhere && binds_(*s.op, choice.fresh_config)) {
        s.bound_somewhere = true;
      }
    }
    if (choice.hint_key >= 0) {
      hint_consumed_[choice.hint_index] = true;
      result.consumed_hints.push_back(choice.hint_key);
    }
    return devices_.size() - 1;
  }

  void commit(OperationId id, const Choice& choice, std::size_t device_index,
              LayerResult& result) {
    DeviceState& d = devices_[device_index];
    const model::Operation& op = assay_.operation(id);
    const Minutes end = choice.start + op.duration();
    d.available = end + outgoing_reserve(id);
    load_parents(id);
    OpState& s = state(id);
    s.placed = true;
    s.device = d.id;
    s.end = end;
    for (const DeviceId parent_device : parent_devices_) {
      const DevicePath path = make_path(parent_device, d.id);
      if (parent_device != d.id && !has_path(path)) {
        new_paths_.push_back(path);
      }
    }
    result.schedule.items.push_back(
        ScheduledOperation{id, d.id, choice.start, op.duration(), Minutes{0}});
  }

  /// Places the determinate operations in list order: the ready one (all
  /// in-layer parents placed) with the highest critical-path priority,
  /// the lowest id among ties.
  void place_determinate(LayerResult& result) {
    // Max-heap on (priority, -position): positions ascend with ids.
    std::priority_queue<std::pair<Minutes, int>> ready;
    std::size_t pending = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (state_[i].op->indeterminate()) {
        continue;
      }
      ++pending;
      if (state_[i].waiting_parents == 0) {
        ready.emplace(state_[i].priority, -static_cast<int>(i));
      }
    }
    for (; pending > 0; --pending) {
      COHLS_ASSERT(!ready.empty(), "no ready operation: layer dependencies are cyclic");
      const OperationId pick = ops_[static_cast<std::size_t>(-ready.top().second)];
      ready.pop();
      const auto choice = best_choice(pick, /*exclude_indeterminate_devices=*/false);
      if (!choice) {
        throw InfeasibleError("no device can execute operation '" +
                              assay_.operation(pick).name() +
                              "' and the inventory is exhausted");
      }
      const std::size_t index = materialize(*choice, result);
      commit(pick, *choice, index, result);
      for (const OperationId child : assay_.children(pick)) {
        const int c = local(child);
        if (c < 0) {
          continue;
        }
        OpState& s = state_[static_cast<std::size_t>(c)];
        if (--s.waiting_parents == 0 && !s.op->indeterminate()) {
          ready.emplace(s.priority, -c);
        }
      }
    }
  }

  void place_indeterminate(const std::vector<OperationId>& ops, LayerResult& result) {
    if (ops.empty()) {
      return;
    }
    // Bind each indeterminate operation to its own device (they must run in
    // parallel), then align all starts to a common time T so constraint
    // (14) holds pairwise and against every determinate start.
    struct Tentative {
      OperationId id;
      Choice choice;
      std::size_t device_index;
    };
    std::vector<Tentative> tentative;
    // Pinned operations claim their devices first, so an unpinned
    // indeterminate operation can never grab a device some pin needs.
    std::vector<OperationId> ordered = ops;
    std::stable_partition(ordered.begin(), ordered.end(), [this](OperationId id) {
      return request_.pinned.count(id) > 0;
    });
    for (const OperationId id : ordered) {
      const auto choice = best_choice(id, /*exclude_indeterminate_devices=*/true);
      if (!choice) {
        throw InfeasibleError(
            "cannot give indeterminate operation '" + assay_.operation(id).name() +
            "' a dedicated device; increase |D| or lower the layer threshold");
      }
      const std::size_t index = materialize(*choice, result);
      for (DeviceState& d : devices_) {
        if (d.id == devices_[index].id) {
          d.indeterminate = true;
        }
      }
      unmatched_indeterminate_ = -1;
      tentative.push_back(Tentative{id, *choice, index});
    }
    Minutes common_start{0};
    for (const Tentative& t : tentative) {
      common_start = std::max(common_start, t.choice.start);
    }
    for (const ScheduledOperation& item : result.schedule.items) {
      common_start = std::max(common_start, item.start);
    }
    for (Tentative& t : tentative) {
      t.choice.start = common_start;
      commit(t.id, t.choice, t.device_index, result);
    }
  }

  /// Reporting only: the actual outgoing transport each operation needs
  /// given the final binding (<= the reserved worst case).
  void fill_transport_fields(LayerSchedule& schedule) const {
    for (ScheduledOperation& item : schedule.items) {
      Minutes actual{0};
      for (const OperationId child : assay_.children(item.op)) {
        const int c = local(child);
        if (c >= 0 && state_[static_cast<std::size_t>(c)].placed &&
            state_[static_cast<std::size_t>(c)].device != item.device) {
          actual = std::max(actual, transport_.edge_time(item.op, child));
        }
      }
      item.transport = actual;
    }
  }

  const LayerRequest& request_;
  const model::Assay& assay_;
  const TransportPlan& transport_;
  const model::CostModel& costs_;
  model::DeviceInventory& inventory_;
  /// The layer's operations, ascending; OpState i belongs to ops_[i].
  std::vector<OperationId> ops_;
  std::vector<OpState> state_;
  std::function<bool(const model::Operation&, const model::DeviceConfig&)> binds_;
  std::vector<DeviceState> devices_;
  std::vector<bool> hint_consumed_;
  /// unmatched_indeterminate() for a determinate caller; -1 = recompute.
  int unmatched_indeterminate_ = -1;
  /// Paths this layer created (request_.existing_paths holds the rest).
  std::vector<DevicePath> new_paths_;
  // The operation being placed (load_parents / load_descendants).
  std::vector<ParentLink> parent_links_;
  std::vector<DeviceId> parent_devices_;
  std::vector<const model::Operation*> descendants_;
  std::vector<OperationId> walk_frontier_;
  std::vector<bool> walk_mark_;
};

}  // namespace

LayerResult schedule_layer(const LayerRequest& request, const model::Assay& assay,
                           const TransportPlan& transport, const model::CostModel& costs,
                           model::DeviceInventory& inventory) {
  for (const OperationId id : request.ops) {
    COHLS_EXPECT(id.valid() && id.value() < assay.operation_count(),
                 "layer references an operation outside the assay");
  }
  LayerScheduler scheduler(request, assay, transport, costs, inventory);
  return scheduler.run();
}

}  // namespace cohls::schedule
