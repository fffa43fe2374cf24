#include "schedule/list_scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
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
  /// Equals LayerScheduler::match_round_ while the matching of
  /// unmatched_indeterminate() holds the device.
  unsigned matched_round = 0;
};

/// One parent entry of a layer operation, resolved once per layer: an
/// in-layer parent by position, an earlier-layer one by its prior device.
/// Earlier-layer parents without a prior binding impose nothing and get no
/// entry.
struct ParentRef {
  int local = -1;   // position in the layer, -1 for an earlier-layer parent
  DeviceId prior;   // request.prior_binding of an earlier-layer parent
  Minutes edge{0};  // transport edge time parent -> operation
};

/// Per-operation state of the layer, indexed by the operation's position in
/// the sorted layer (see LayerScheduler::pos_).
struct OpState {
  const model::Operation* op = nullptr;
  /// Longest downstream duration chain within the layer (critical-path
  /// priority). Indeterminate operations contribute their minimum duration.
  Minutes priority{0};
  /// In-layer parents not placed yet (counted once per parent entry).
  int waiting_parents = 0;
  /// Requirement group: operations with the same container, capacity and
  /// accessory needs share it (see LayerScheduler::group_open_).
  int group = 0;
  /// This operation's entries of LayerScheduler::parents_.
  int parents_begin = 0;
  int parents_end = 0;
  /// request.pinned's device for the operation; invalid when unpinned.
  DeviceId pin;
  /// Some device of devices_ binds the operation. Devices are only ever
  /// added, so the flag only ever turns on.
  bool bound_somewhere = false;
  bool placed = false;
  /// Already in run()'s list of indeterminate operations.
  bool listed = false;
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
        custom_binds_(static_cast<bool>(request.binds)),
        accessory_costs_(assay.registry().cost_table()) {
    std::sort(ops_.begin(), ops_.end());
    ops_.erase(std::unique(ops_.begin(), ops_.end()), ops_.end());
    pos_.assign(static_cast<std::size_t>(assay_.operation_count()), -1);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      pos_[ops_[i].index()] = static_cast<int>(i);
    }
    // Every operation may add a device, but ids never reach |D|.
    devices_.reserve(request.usable_devices.size() +
                     std::min(ops_.size(), static_cast<std::size_t>(inventory.max_devices())));
    for (const DeviceId id : request.usable_devices) {
      devices_.push_back(DeviceState{id, inventory.device(id).config, Minutes{0}});
    }
    hint_consumed_.assign(request.hints.size(), false);
    state_.resize(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      OpState& s = state_[i];
      s.op = &assay_.operation(ops_[i]);
      s.parents_begin = static_cast<int>(parents_.size());
      for (const EdgeId edge : s.op->parent_edges()) {
        const OperationId parent = assay_.edge_parent(edge);
        const int p = local(parent);
        if (p >= 0) {
          ++s.waiting_parents;
          parents_.push_back(ParentRef{p, DeviceId{}, transport_.edge_time(edge)});
          continue;
        }
        const DeviceId prior = request_.prior_binding.device(parent);
        if (prior.valid()) {
          COHLS_EXPECT(prior.value() < inventory.size(),
                       "prior binding references a device outside the inventory");
          parents_.push_back(ParentRef{-1, prior, transport_.edge_time(edge)});
        }
      }
      s.parents_end = static_cast<int>(parents_.size());
      s.bound_somewhere =
          std::any_of(devices_.begin(), devices_.end(),
                      [&](const DeviceState& d) { return binds(*s.op, d.config); });
      if (s.op->indeterminate()) {
        indeterminate_.push_back(static_cast<int>(i));
      }
    }
    for (const auto& [id, device] : request_.pinned) {
      const int p = id.valid() && id.value() < assay_.operation_count() ? local(id) : -1;
      if (p >= 0) {
        state_[static_cast<std::size_t>(p)].pin = device;
      }
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
    group_requirements();
    // Every device the layer can see has an id below the inventory size
    // plus one new device per operation.
    paths_ = request.existing_paths;
    paths_.reserve(std::min(static_cast<std::size_t>(inventory.max_devices()),
                            static_cast<std::size_t>(inventory.size()) + ops_.size()));
    walk_mark_.assign(static_cast<std::size_t>(assay_.operation_count()), 0);
  }

  LayerResult run() {
    LayerResult result;
    result.schedule.layer = request_.layer;
    result.schedule.items.reserve(ops_.size());

    // Request order, each operation once.
    std::vector<int> indeterminate;
    for (const OperationId id : request_.ops) {
      OpState& s = state_[static_cast<std::size_t>(local(id))];
      if (s.op->indeterminate() && !s.listed) {
        s.listed = true;
        indeterminate.push_back(local(id));
      }
    }

    place_determinate(result);
    place_indeterminate(std::move(indeterminate), result);
    fill_transport_fields(result.schedule);
    return result;
  }

 private:
  /// Position of `id` in the sorted layer, or -1 when it is not in the layer.
  int local(OperationId id) const { return pos_[id.index()]; }

  bool binds(const model::Operation& op, const model::DeviceConfig& config) const {
    return custom_binds_ ? request_.binds(op, config) : model::is_compatible(op, config);
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
  /// Loads parent_links_ and parent_devices_ (distinct) for the operation at
  /// `index` under the current partial binding: placed parents of this
  /// layer and parents bound by earlier layers.
  void load_parents(int index) {
    parent_links_.clear();
    parent_devices_.clear();
    const OpState& s = state_[static_cast<std::size_t>(index)];
    for (int r = s.parents_begin; r < s.parents_end; ++r) {
      const ParentRef& ref = parents_[static_cast<std::size_t>(r)];
      if (ref.local < 0) {
        // Reagent inherited across the layer boundary must be moved first
        // unless the operation stays on its device.
        add_parent(ParentLink{ref.prior, Minutes{0}, ref.edge});
        continue;
      }
      const OpState& parent = state_[static_cast<std::size_t>(ref.local)];
      if (parent.placed) {
        add_parent(ParentLink{parent.device, parent.end, parent.end + ref.edge});
      }
    }
  }

  void add_parent(const ParentLink& link) {
    parent_links_.push_back(link);
    if (std::find(parent_devices_.begin(), parent_devices_.end(), link.device) ==
        parent_devices_.end()) {
      parent_devices_.push_back(link.device);
    }
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
        walk_mark_[child.index()] = 1;
        frontier.push_back(child);
        const int c = local(child);
        COHLS_ASSERT(c < 0 || !state_[static_cast<std::size_t>(c)].placed,
                     "a descendant of an unplaced operation is already placed");
        descendants_.push_back(&assay_.operation(child));
      }
    }
    for (const model::Operation* op : descendants_) {
      walk_mark_[op->id().index()] = 0;
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

  /// Paths the loaded operation adds on a device; a fresh device (invalid
  /// id) needs one per distinct parent device.
  int new_paths_on(DeviceId device) const {
    if (!device.valid()) {
      return static_cast<int>(parent_devices_.size());
    }
    int count = 0;
    for (const DeviceId parent_device : parent_devices_) {
      if (parent_device != device && !paths_.contains(parent_device, device)) {
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
    for (const EdgeId edge : assay_.child_edges(id)) {
      if (local(assay_.edge_child(edge)) >= 0) {
        reserve = std::max(reserve, transport_.edge_time(edge));
      }
    }
    return reserve;
  }

  // ---- capability reservation ---------------------------------------------
  /// Numbers the distinct requirement signatures (container, capacity,
  /// accessories) of the layer and opens the groups of the operations the
  /// reservation counts.
  void group_requirements() {
    // (signature, position); a signature packs the accessory bits with
    // the container and capacity, each offset by one so "any" is zero.
    std::vector<std::pair<std::uint64_t, int>> keys;
    keys.reserve(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const model::Operation& op = *state_[i].op;
      const std::uint64_t container = op.container() ? 1 + static_cast<int>(*op.container()) : 0;
      const std::uint64_t capacity = op.capacity() ? 1 + static_cast<int>(*op.capacity()) : 0;
      keys.emplace_back(container << 40 | capacity << 32 | op.accessories().bits(),
                        static_cast<int>(i));
    }
    std::sort(keys.begin(), keys.end());
    int groups = 0;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (k > 0 && keys[k].first != keys[k - 1].first) {
        ++groups;
      }
      state_[static_cast<std::size_t>(keys[k].second)].group = groups;
    }
    group_open_.assign(keys.size(), 0);
    group_minimal_.resize(keys.size());
    for (const OpState& s : state_) {
      if (counted(s) && group_open_[static_cast<std::size_t>(s.group)]++ == 0) {
        ++open_groups_;
      }
    }
  }

  /// The reservation counts an operation while it is determinate, unplaced
  /// and bound by no device.
  static bool counted(const OpState& s) {
    return !s.placed && !s.bound_somewhere && !s.op->indeterminate();
  }

  /// Call before `s` stops being counted (it is placed or gets bound).
  void uncount(const OpState& s) {
    if (counted(s) && --group_open_[static_cast<std::size_t>(s.group)] == 0) {
      --open_groups_;
    }
  }

  /// Conservative count of inventory slots that must stay free for the
  /// *other* unplaced operations of this layer: one per distinct
  /// requirement signature no current device satisfies, plus one per
  /// indeterminate operation that cannot be matched to a distinct existing
  /// device. Spawning a device for parallelism is only allowed when it
  /// leaves at least this many slots.
  int slots_reserved_for_others(int current) {
    const OpState& s = state_[static_cast<std::size_t>(current)];
    int groups = open_groups_;
    if (counted(s) && group_open_[static_cast<std::size_t>(s.group)] == 1) {
      --groups;
    }
    // While the determinate operations are placed, the unplaced
    // indeterminate ones and the devices' claims stay fixed, so the
    // matching only changes when a device is added.
    if (s.op->indeterminate()) {
      return groups + unmatched_indeterminate(current);
    }
    if (unmatched_indeterminate_ < 0) {
      unmatched_indeterminate_ = unmatched_indeterminate(current);
    }
    return groups + unmatched_indeterminate_;
  }

  /// Unplaced indeterminate operations other than `current` left without a
  /// device by a greedy matching in id order: each needs its own device,
  /// distinct from those already claimed by other indeterminate operations.
  int unmatched_indeterminate(int current) {
    ++match_round_;
    int unmatched = 0;
    for (const int i : indeterminate_) {
      const OpState& s = state_[static_cast<std::size_t>(i)];
      if (s.placed || i == current) {
        continue;
      }
      const auto free_match =
          std::find_if(devices_.begin(), devices_.end(), [&](const DeviceState& d) {
            return !d.indeterminate && d.matched_round != match_round_ &&
                   binds(*s.op, d.config);
          });
      if (free_match != devices_.end()) {
        // Equal ids share the claim, as duplicated usable devices do.
        for (DeviceState& d : devices_) {
          if (d.id == free_match->id) {
            d.matched_round = match_round_;
          }
        }
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
  model::DeviceConfig enrich_config(model::DeviceConfig config, int current) const {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const OpState& s = state_[i];
      if (s.placed || s.bound_somewhere || static_cast<int>(i) == current) {
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
        [&](const model::Operation* descendant) { return binds(*descendant, config); }));
  }

  double base_score(OperationId id, DeviceId device, const model::DeviceConfig& config,
                    Minutes start) const {
    const Minutes completion = start + assay_.operation(id).duration();
    return costs_.weight_time() * static_cast<double>(completion.count()) +
           costs_.weight_paths() * new_paths_on(device) -
           0.5 * costs_.weight_paths() * hostable_descendants(config);
  }

  /// model::minimal_config of the operation's requirement group, chosen
  /// once per group per solve.
  const model::DeviceConfig& group_minimal(const OpState& s) {
    std::optional<model::DeviceConfig>& minimal =
        group_minimal_[static_cast<std::size_t>(s.group)];
    if (!minimal) {
      minimal = model::minimal_config(*s.op, costs_, accessory_costs_.total(s.op->accessories()))
                    .config;
    }
    return *minimal;
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

  std::optional<Choice> best_choice(int index, bool exclude_indeterminate_devices) {
    const OpState& s = state_[static_cast<std::size_t>(index)];
    const model::Operation& op = *s.op;
    const OperationId id = op.id();
    load_parents(index);
    load_descendants(id);
    // A pinned operation (recovery: it is physically mid-flight on that
    // device) considers no alternative binding — the pin overrides scoring
    // and the indeterminate-device exclusion alike.
    if (s.pin.valid()) {
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        const DeviceState& d = devices_[i];
        if (d.id != s.pin) {
          continue;
        }
        if (!binds(op, d.config)) {
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
      if (!binds(op, d.config)) {
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
    const bool slots_scarce = slots_left <= slots_reserved_for_others(index);
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
        if (!binds(op, hint.config)) {
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
      // Brand-new devices, at full integration cost (priced from the
      // per-solve accessory cost table, so no registry lock is taken).
      const auto offer_new = [&](const model::DeviceConfig& config) {
        if (!binds(op, config)) {
          return;
        }
        Choice c;
        c.fresh = true;
        c.fresh_config = config;
        c.start = fresh_start;
        c.score = base_score(id, DeviceId{}, config, c.start) +
                  costs_.weight_area() * model::device_area(config, costs_) +
                  costs_.weight_processing() *
                      (costs_.container_processing(config.container, config.capacity) +
                       accessory_costs_.total(config.accessories));
        offer(c);
      };
      // The component-oriented rule offers a minimal configuration (enriched
      // for the requirement groups under slot scarcity) and a
      // pipeline-enriched one; custom new_config callers (the conventional
      // baseline) get exactly their class configuration.
      if (request_.new_config) {
        offer_new(request_.new_config(op));
      } else {
        model::DeviceConfig minimal = group_minimal(s);
        if (slots_scarce) {
          minimal = enrich_config(minimal, index);
        }
        offer_new(minimal);
        const model::DeviceConfig piped = pipeline_config(minimal);
        if (!(piped == minimal)) {
          offer_new(piped);
        }
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
      if (!s.placed && !s.bound_somewhere && binds(*s.op, choice.fresh_config)) {
        uncount(s);
        s.bound_somewhere = true;
      }
    }
    if (choice.hint_key >= 0) {
      hint_consumed_[choice.hint_index] = true;
      result.consumed_hints.push_back(choice.hint_key);
    }
    return devices_.size() - 1;
  }

  void commit(int index, const Choice& choice, std::size_t device_index,
              LayerResult& result) {
    DeviceState& d = devices_[device_index];
    OpState& s = state_[static_cast<std::size_t>(index)];
    const model::Operation& op = *s.op;
    const Minutes end = choice.start + op.duration();
    d.available = end + outgoing_reserve(op.id());
    uncount(s);
    s.placed = true;
    s.device = d.id;
    s.end = end;
    result.schedule.items.push_back(
        ScheduledOperation{op.id(), d.id, choice.start, op.duration(), Minutes{0}});
  }

  /// Places the determinate operations in list order: the ready one (all
  /// in-layer parents placed) with the highest critical-path priority,
  /// the lowest id among ties.
  void place_determinate(LayerResult& result) {
    // Max-heap on (priority, -position): positions ascend with ids.
    std::vector<std::pair<Minutes, int>> heap;
    heap.reserve(ops_.size());
    std::priority_queue<std::pair<Minutes, int>> ready({}, std::move(heap));
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
      const int pick = -ready.top().second;
      ready.pop();
      const auto choice = best_choice(pick, /*exclude_indeterminate_devices=*/false);
      if (!choice) {
        throw InfeasibleError("no device can execute operation '" +
                              state_[static_cast<std::size_t>(pick)].op->name() +
                              "' and the inventory is exhausted");
      }
      const std::size_t device_index = materialize(*choice, result);
      commit(pick, *choice, device_index, result);
      // The paths to the parents best_choice loaded. Only later placements
      // read them, so the indeterminate operations, placed last, add none.
      const DeviceId device = devices_[device_index].id;
      for (const DeviceId parent_device : parent_devices_) {
        if (parent_device != device) {
          paths_.insert(parent_device, device);
        }
      }
      for (const OperationId child : assay_.children(ops_[static_cast<std::size_t>(pick)])) {
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

  /// `ops`: positions of the layer's indeterminate operations, in request
  /// order.
  void place_indeterminate(std::vector<int> ops, LayerResult& result) {
    if (ops.empty()) {
      return;
    }
    // Bind each indeterminate operation to its own device (they must run in
    // parallel), then align all starts to a common time T so constraint
    // (14) holds pairwise and against every determinate start.
    struct Tentative {
      int index;
      Choice choice;
      std::size_t device_index;
    };
    std::vector<Tentative> tentative;
    tentative.reserve(ops.size());
    // Pinned operations claim their devices first, so an unpinned
    // indeterminate operation can never grab a device some pin needs.
    std::stable_partition(ops.begin(), ops.end(), [this](int index) {
      return state_[static_cast<std::size_t>(index)].pin.valid();
    });
    for (const int index : ops) {
      const auto choice = best_choice(index, /*exclude_indeterminate_devices=*/true);
      if (!choice) {
        throw InfeasibleError("cannot give indeterminate operation '" +
                              state_[static_cast<std::size_t>(index)].op->name() +
                              "' a dedicated device; increase |D| or lower the layer threshold");
      }
      const std::size_t device_index = materialize(*choice, result);
      for (DeviceState& d : devices_) {
        if (d.id == devices_[device_index].id) {
          d.indeterminate = true;
        }
      }
      unmatched_indeterminate_ = -1;
      tentative.push_back(Tentative{index, *choice, device_index});
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
      commit(t.index, t.choice, t.device_index, result);
    }
  }

  /// Reporting only: the actual outgoing transport each operation needs
  /// given the final binding (<= the reserved worst case).
  void fill_transport_fields(LayerSchedule& schedule) const {
    for (ScheduledOperation& item : schedule.items) {
      Minutes actual{0};
      for (const EdgeId edge : assay_.child_edges(item.op)) {
        const int c = local(assay_.edge_child(edge));
        if (c >= 0 && state_[static_cast<std::size_t>(c)].placed &&
            state_[static_cast<std::size_t>(c)].device != item.device) {
          actual = std::max(actual, transport_.edge_time(edge));
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
  /// Position in ops_ of every assay operation, -1 outside the layer.
  std::vector<int> pos_;
  std::vector<OpState> state_;
  /// Parent entries of all layer operations (OpState::parents_begin/end).
  std::vector<ParentRef> parents_;
  /// Positions of the indeterminate operations, ascending.
  std::vector<int> indeterminate_;
  /// request_.binds is set; otherwise binding is model::is_compatible.
  bool custom_binds_;
  model::AccessoryCostTable accessory_costs_;
  std::vector<DeviceState> devices_;
  std::vector<bool> hint_consumed_;
  /// Counted operations (see counted()) per requirement group, and the
  /// number of groups with any.
  std::vector<int> group_open_;
  int open_groups_ = 0;
  /// group_minimal() per requirement group, once asked for.
  std::vector<std::optional<model::DeviceConfig>> group_minimal_;
  /// unmatched_indeterminate() for a determinate caller; -1 = recompute.
  int unmatched_indeterminate_ = -1;
  unsigned match_round_ = 0;
  /// Paths, request_.existing_paths plus this layer's.
  PathMatrix paths_;
  // The operation being placed (load_parents / load_descendants).
  std::vector<ParentLink> parent_links_;
  std::vector<DeviceId> parent_devices_;
  std::vector<const model::Operation*> descendants_;
  std::vector<OperationId> walk_frontier_;
  std::vector<std::uint8_t> walk_mark_;
};

}  // namespace

LayerResult schedule_layer(const LayerRequest& request, const model::Assay& assay,
                           const TransportPlan& transport, const model::CostModel& costs,
                           model::DeviceInventory& inventory) {
  for (const OperationId id : request.ops) {
    COHLS_EXPECT(id.valid() && id.value() < assay.operation_count(),
                 "layer references an operation outside the assay");
  }
  COHLS_EXPECT(transport.fits(assay), "transport plan belongs to another assay");
  LayerScheduler scheduler(request, assay, transport, costs, inventory);
  return scheduler.run();
}

}  // namespace cohls::schedule
