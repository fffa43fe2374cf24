#include "engine/layer_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cohls::engine {

namespace {

/// Layer ops in canonical (id) order — rank r maps to sorted_ops[r].
std::vector<OperationId> sorted_layer_ops(const schedule::LayerRequest& request) {
  std::vector<OperationId> ops = request.ops;
  std::sort(ops.begin(), ops.end());
  return ops;
}

int hint_position(const schedule::LayerRequest& request, int key) {
  for (std::size_t i = 0; i < request.hints.size(); ++i) {
    if (request.hints[i].key == key) {
      return static_cast<int>(i);
    }
  }
  COHLS_ASSERT(false, "consumed hint key not present in the request");
  return -1;
}

}  // namespace

LayerSolutionCache::LayerSolutionCache(std::size_t capacity, int shards)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  const std::size_t shard_count = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(shards, 1)), 1, capacity_);
  shards_ = std::vector<Shard>(shard_count);
  per_shard_capacity_ = std::max<std::size_t>(capacity_ / shard_count, 1);
}

LayerSolutionCache::CachedSolution LayerSolutionCache::encode(
    const core::LayerSolveContext& context, const core::LayerOutcome& outcome) {
  const schedule::LayerRequest& request = context.request;
  const std::vector<OperationId> ops = sorted_layer_ops(request);
  std::unordered_map<std::int32_t, int> op_rank;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    op_rank.emplace(ops[i].value(), static_cast<int>(i));
  }
  std::unordered_map<std::int32_t, int> device_ref;
  for (std::size_t i = 0; i < request.usable_devices.size(); ++i) {
    device_ref.emplace(request.usable_devices[i].value(), static_cast<int>(i));
  }

  CachedSolution cached;
  // Devices the layer created, in instantiation (id) order.
  const int inherited = context.inventory.size();
  const auto& devices = outcome.inventory.devices();
  for (int i = inherited; i < outcome.inventory.size(); ++i) {
    const model::Device& device = devices[static_cast<std::size_t>(i)];
    COHLS_ASSERT(device.created_in == request.layer,
                 "layer outcome contains a device created elsewhere");
    device_ref.emplace(device.id.value(),
                       static_cast<int>(request.usable_devices.size()) + (i - inherited));
    cached.created.push_back(device.config);
  }

  for (const schedule::ScheduledOperation& item : outcome.result.schedule.items) {
    CachedItem encoded;
    encoded.op_rank = op_rank.at(item.op.value());
    encoded.device_ref = device_ref.at(item.device.value());
    encoded.start = item.start.count();
    encoded.duration = item.duration.count();
    encoded.transport = item.transport.count();
    cached.items.push_back(encoded);
  }
  for (const int key : outcome.result.consumed_hints) {
    cached.consumed_hints.push_back(hint_position(request, key));
  }
  cached.used_ilp = outcome.used_ilp;
  cached.score = outcome.score;
  return cached;
}

core::LayerOutcome LayerSolutionCache::decode(const core::LayerSolveContext& context,
                                              const CachedSolution& cached) {
  const schedule::LayerRequest& request = context.request;
  const std::vector<OperationId> ops = sorted_layer_ops(request);

  core::LayerOutcome outcome;
  outcome.inventory = context.inventory;
  std::vector<DeviceId> devices = request.usable_devices;
  for (const model::DeviceConfig& config : cached.created) {
    devices.push_back(outcome.inventory.instantiate(config, request.layer));
  }

  outcome.result.schedule.layer = request.layer;
  for (const CachedItem& item : cached.items) {
    schedule::ScheduledOperation decoded;
    decoded.op = ops.at(static_cast<std::size_t>(item.op_rank));
    decoded.device = devices.at(static_cast<std::size_t>(item.device_ref));
    decoded.start = Minutes{item.start};
    decoded.duration = Minutes{item.duration};
    decoded.transport = Minutes{item.transport};
    outcome.result.schedule.items.push_back(decoded);
  }
  for (const int position : cached.consumed_hints) {
    outcome.result.consumed_hints.push_back(
        request.hints.at(static_cast<std::size_t>(position)).key);
  }
  outcome.used_ilp = cached.used_ilp;
  outcome.score = cached.score;
  return outcome;
}

std::optional<core::LayerOutcome> LayerSolutionCache::lookup(
    const core::LayerSolveContext& context) {
  if (!cacheable(context)) {
    return std::nullopt;
  }
  const LayerSignature signature = layer_signature(context);
  Shard& shard = shard_for(signature.hash);
  std::optional<CachedSolution> found;
  {
    util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(std::string_view{signature.text});
    if (it == shard.index.end()) {
      ++shard.misses;
    } else {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      found = it->second->value;  // copy out under the lock
    }
  }
  if (!found.has_value()) {
    return std::nullopt;
  }
  core::LayerOutcome outcome = decode(context, *found);
  if (verify_hits_) {
    const core::LayerOutcome fresh =
        core::synthesize_layer(context.request, context.assay, context.transport,
                               context.costs, context.engine, context.inventory);
    COHLS_ASSERT(encode(context, fresh) == *found,
                 "layer cache hit differs from a fresh solve — incomplete signature");
  }
  return outcome;
}

void LayerSolutionCache::store(const core::LayerSolveContext& context,
                               const core::LayerOutcome& outcome) {
  if (!cacheable(context)) {
    return;
  }
  const LayerSignature signature = layer_signature(context);
  CachedSolution value = encode(context, outcome);
  Shard& shard = shard_for(signature.hash);
  util::MutexLock lock(shard.mutex);
  if (shard.index.count(std::string_view{signature.text}) > 0) {
    return;  // first writer wins; identical by construction
  }
  shard.lru.push_front(Entry{std::move(signature.text), std::move(value)});
  shard.index.emplace(std::string_view{shard.lru.front().key}, shard.lru.begin());
  ++shard.stores;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(std::string_view{shard.lru.back().key});
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats LayerSolutionCache::stats() const {
  CacheStats total;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.stores += shard.stores;
    total.evictions += shard.evictions;
  }
  return total;
}

std::size_t LayerSolutionCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace cohls::engine
