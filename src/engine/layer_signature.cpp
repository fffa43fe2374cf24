#include "engine/layer_signature.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace cohls::engine {

namespace {

/// Appends key text in the stream syntax the format was first written in:
/// integers and bools in decimal, doubles as `%.17g` (general format at
/// max_digits10 significant digits). Each write reserves room in a buffer
/// that only grows and stores raw bytes: a bounds check and a small copy.
class KeyWriter {
 public:
  explicit KeyWriter(std::string& buffer) : buffer_(buffer) {}

  [[nodiscard]] std::string_view text() const { return {buffer_.data(), size_}; }

  template <typename T>
  KeyWriter& operator<<(const T& value) {
    std::size_t room = std::max(sizeof(T), kMaxNumber);
    if constexpr (std::is_same_v<T, std::string_view>) {
      room = std::max(room, value.size());
    }
    if (size_ + room > buffer_.size()) {
      buffer_.resize(2 * (size_ + room));
    }
    char* at = buffer_.data() + size_;
    if constexpr (std::is_array_v<T>) {  // a string literal
      at = std::copy_n(value, sizeof(T) - 1, at);
    } else if constexpr (std::is_same_v<T, std::string_view>) {
      at = std::copy(value.begin(), value.end(), at);
    } else if constexpr (std::is_same_v<T, char>) {
      *at++ = value;
    } else if constexpr (std::is_same_v<T, bool>) {
      *at++ = value ? '1' : '0';
    } else if constexpr (std::is_floating_point_v<T>) {
      at = std::to_chars(at, at + kMaxNumber, value, std::chars_format::general,
                         std::numeric_limits<T>::max_digits10)
               .ptr;
    } else {
      at = std::to_chars(at, at + kMaxNumber, value).ptr;
    }
    size_ = static_cast<std::size_t>(at - buffer_.data());
    return *this;
  }

 private:
  static constexpr std::size_t kMaxNumber = 32;  ///< longest number written
  std::string& buffer_;
  std::size_t size_ = 0;
};

char container_code(model::ContainerKind kind) {
  return kind == model::ContainerKind::Ring ? 'R' : 'C';
}

void put_accessories(KeyWriter& out, model::AccessorySet accessories) {
  out << "a{";
  std::string_view separator;
  for (const model::AccessoryId id : accessories) {
    out << separator << id;
    separator = ",";
  }
  out << '}';
}

void put_config(KeyWriter& out, const model::DeviceConfig& config) {
  out << container_code(config.container) << static_cast<int>(config.capacity);
  put_accessories(out, config.accessories);
}

void put_op_attributes(KeyWriter& out, const model::Operation& op) {
  out << " c=" << (op.container() ? container_code(*op.container()) : '*') << " k=";
  if (op.capacity().has_value()) {
    out << static_cast<int>(*op.capacity());
  } else {
    out << '*';
  }
  out << ' ';
  put_accessories(out, op.accessories());
  out << " d=" << op.duration().count() << std::string_view(op.indeterminate() ? " ind" : "");
}

}  // namespace

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool cacheable(const core::LayerSolveContext& context) {
  // std::function policies have no canonical form, and a warm start changes
  // what the MILP returns; both must bypass the cache. Recovery pins force
  // bindings the signature does not encode, so they bypass it too. A
  // wall-limited MILP returns whatever the host's load let it reach, so only
  // work-budgeted solves are cached.
  return !context.request.binds && !context.request.new_config &&
         context.request.pinned.empty() &&
         !context.engine.milp.warm_start.has_value() &&
         !(context.engine.milp.time_limit_seconds > 0.0);
}

LayerSignature layer_signature(const core::LayerSolveContext& context) {
  COHLS_EXPECT(cacheable(context), "layer context is not cacheable");
  const schedule::LayerRequest& request = context.request;
  const model::Assay& assay = context.assay;

  // Canonical operation numbering: dense rank in id order, over the layer's
  // ops plus the full descendant cone (the scheduler's pipeline lookahead
  // reads descendant attributes arbitrarily deep). Mark the cone (rank 0),
  // then rank it in one ascending scan.
  const auto op_count = static_cast<std::size_t>(assay.operation_count());
  std::vector<int> rank(op_count, -1);
  std::vector<bool> member(op_count, false);
  std::vector<OperationId> cone(request.ops.begin(), request.ops.end());
  for (const OperationId id : request.ops) {
    COHLS_EXPECT(id.valid() && id.index() < op_count, "unknown operation id");
    member[id.index()] = true;
    rank[id.index()] = 0;
  }
  while (!cone.empty()) {
    const OperationId current = cone.back();
    cone.pop_back();
    for (const OperationId child : assay.children(current)) {
      if (rank[child.index()] < 0) {
        rank[child.index()] = 0;
        cone.push_back(child);
      }
    }
  }
  for (std::size_t i = 0; i < op_count; ++i) {
    if (rank[i] >= 0) {
      rank[i] = static_cast<int>(cone.size());
      cone.emplace_back(static_cast<std::int32_t>(i));
    }
  }

  thread_local std::string buffer;
  KeyWriter out(buffer);
  out << "cohls-layer-sig v4\n";

  // Engine budgets — a different budget may legitimately change the result.
  const core::EngineOptions& engine = context.engine;
  out << "engine ilp=" << engine.enable_ilp << " ops=" << engine.ilp_max_ops
      << " dev=" << engine.ilp_max_devices << " slots=" << engine.ilp_new_slots
      << " nodes=" << engine.milp.max_nodes << " pivots=" << engine.milp.max_pivots
      << " round=" << engine.milp.enable_rounding_heuristic << '\n';

  // Cost model and registry processing costs.
  const model::CostModel& costs = context.costs;
  out << 'w';
  for (const double w : {costs.weight_time(), costs.weight_area(),
                         costs.weight_processing(), costs.weight_paths()}) {
    out << ' ' << w;
  }
  out << "\narea";
  for (const model::ContainerKind kind :
       {model::ContainerKind::Ring, model::ContainerKind::Chamber}) {
    for (const model::Capacity capacity : model::kAllCapacities) {
      if (model::capacity_allowed(kind, capacity)) {
        out << ' ' << costs.area(kind, capacity) << '/'
            << costs.container_processing(kind, capacity);
      }
    }
  }
  out << "\nacc";
  const model::AccessoryRegistry& registry = assay.registry();
  for (model::AccessoryId id = 0; id < registry.count(); ++id) {
    out << ' ' << registry.processing_cost(id);
  }

  // Layer-request scalars. The layer id itself is deliberately absent: it
  // only tags the output and is re-applied on decode.
  out << "\nreq slot=" << request.slot_size.count()
      << " new=" << request.allow_new_devices
      << " free=" << (context.inventory.max_devices() - context.inventory.size())
      << " t0=" << context.transport.uniform_time().count() << '\n';

  // Inherited devices, in canonical (inventory) order; a device's first
  // listing fixes its rank.
  std::vector<int> device_rank(static_cast<std::size_t>(context.inventory.size()), -1);
  int inherited = 0;
  for (const DeviceId id : request.usable_devices) {
    out << "dev ";
    put_config(out, context.inventory.device(id).config);
    out << '\n';
    int& position = device_rank[id.index()];
    position = position < 0 ? inherited++ : position;
  }
  const auto device_position = [&device_rank](DeviceId id) {
    const int position = id.index() < device_rank.size() ? device_rank[id.index()] : -1;
    COHLS_ASSERT(position >= 0, "layer context references a device outside the inventory");
    return position;
  };
  // Hints, in request order (the order is visible to the solver).
  for (const schedule::DeviceHint& hint : request.hints) {
    out << "hint ";
    put_config(out, hint.config);
    out << '\n';
  }
  // Existing paths between inherited devices, canonically numbered.
  std::vector<std::pair<int, int>> paths;
  for (const schedule::DevicePath& path : request.existing_paths) {
    const int a = device_position(path.first);
    const int b = device_position(path.second);
    paths.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& [a, b] : paths) {
    out << "path " << a << '-' << b << '\n';
  }

  // Operations of the cone in canonical order. Layer members carry their
  // full scheduling context (parent edges with transport, prior bindings);
  // cone-only members carry the attributes the lookahead reads.
  for (const OperationId id : cone) {
    const model::Operation& op = assay.operation(id);
    const bool in_layer = member[id.index()];
    out << "op " << rank[id.index()] << (in_layer ? " L" : " D");
    put_op_attributes(out, op);
    if (in_layer) {
      out << " par[";
      std::string_view separator;
      for (const OperationId parent : op.parents()) {
        out << separator;
        separator = " ";
        const std::int64_t t = context.transport.edge_time(parent, id).count();
        if (member[parent.index()]) {
          out << 'L' << rank[parent.index()] << '@' << t;
        } else if (const auto prior = request.prior_binding.find(parent);
                   prior != request.prior_binding.end()) {
          out << 'P' << device_position(prior->second) << '@' << t;
        } else {
          out << "U@" << t;
        }
      }
      out << ']';
    }
    // Children lists ascend by id (an op joins its parents' lists when it is
    // added), and ranks ascend with ids: the list is in canonical order.
    out << " ch[";
    std::string_view separator;
    for (const OperationId child : assay.children(id)) {
      out << separator << rank[child.index()] << '@'
          << context.transport.edge_time(id, child).count();
      separator = " ";
    }
    out << "]\n";
  }

  // Copy out exact-size: the key moves into a cache entry and stays resident.
  LayerSignature signature;
  signature.text = out.text();
  signature.hash = fnv1a(signature.text);
  return signature;
}

}  // namespace cohls::engine
