#include "engine/layer_cache.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace cohls::engine {

namespace {

/// Rank of each layer op in id order, indexed by op id (-1 off the layer).
std::vector<int> layer_ranks(const schedule::LayerRequest& request) {
  std::vector<int> rank;
  for (const OperationId id : request.ops) {
    rank.resize(std::max(rank.size(), id.index() + 1), -1);
    rank[id.index()] = 0;
  }
  int next = 0;
  for (int& r : rank) {
    r = r < 0 ? r : next++;
  }
  return rank;
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
  const std::vector<int> op_rank = layer_ranks(request);
  // Inherited devices by inventory position (filled backwards, so a device
  // listed twice keeps its first position); created ones by |inherited| +
  // creation order.
  std::vector<int> device_ref(static_cast<std::size_t>(outcome.inventory.size()), -1);
  for (std::size_t i = request.usable_devices.size(); i-- > 0;) {
    device_ref.at(request.usable_devices[i].index()) = static_cast<int>(i);
  }

  CachedSolution cached;
  // Devices the layer created, in instantiation (id) order.
  const int inherited = context.inventory.size();
  const auto& devices = outcome.inventory.devices();
  for (int i = inherited; i < outcome.inventory.size(); ++i) {
    const model::Device& device = devices[static_cast<std::size_t>(i)];
    COHLS_ASSERT(device.created_in == request.layer,
                 "layer outcome contains a device created elsewhere");
    device_ref[device.id.index()] =
        static_cast<int>(request.usable_devices.size()) + (i - inherited);
    cached.created.push_back(device.config);
  }

  for (const schedule::ScheduledOperation& item : outcome.result.schedule.items) {
    CachedItem encoded;
    encoded.op_rank = op_rank.at(item.op.index());
    encoded.device_ref = device_ref.at(item.device.index());
    COHLS_ASSERT(encoded.op_rank >= 0 && encoded.device_ref >= 0,
                 "layer outcome references an id outside the layer's context");
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
  const std::vector<int> op_rank = layer_ranks(request);
  std::vector<OperationId> ops(request.ops.size());  // rank r -> ops[r]
  for (const OperationId id : request.ops) {
    ops[static_cast<std::size_t>(op_rank[id.index()])] = id;
  }

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
  LayerSignature signature = layer_signature(context);
  Shard& shard = shard_for(signature.hash);
  std::optional<CachedSolution> found;
  {
    util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(IndexKey{signature.hash, signature.text});
    if (it == shard.index.end()) {
      ++shard.misses;
    } else {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      found = it->second->value;  // copy out under the lock
    }
  }
  if (!found.has_value()) {
    context.cache_key = std::move(signature.text);
    context.cache_key_hash = signature.hash;
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
  LayerSignature signature = context.cache_key.empty()
                                 ? layer_signature(context)
                                 : LayerSignature{std::exchange(context.cache_key, {}),
                                                  context.cache_key_hash};
  CachedSolution value = encode(context, outcome);
  Shard& shard = shard_for(signature.hash);
  util::MutexLock lock(shard.mutex);
  if (shard.index.contains(IndexKey{signature.hash, signature.text})) {
    return;  // first writer wins; identical by construction
  }
  shard.lru.push_front(Entry{std::move(signature), std::move(value)});
  const LayerSignature& key = shard.lru.front().key;
  shard.index.emplace(IndexKey{key.hash, key.text}, shard.lru.begin());
  ++shard.stores;
  while (shard.lru.size() > per_shard_capacity_) {
    const LayerSignature& last = shard.lru.back().key;
    shard.index.erase(IndexKey{last.hash, last.text});
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
