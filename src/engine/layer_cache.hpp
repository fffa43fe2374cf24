// Sharded, thread-safe, capacity-bounded (LRU) cache of per-layer solutions,
// keyed by the canonical layer signature. Solutions are stored in a
// device-id- and operation-id-independent form (canonical ranks), so a hit
// can be decoded into any context that produced the same signature —
// replicated pipelines, re-submitted assays, converged re-synthesis
// iterations. The index buckets by the signature's hash but compares the
// full text, so a 64-bit hash collision degrades to a miss, never to a
// wrong answer.
//
// Caching is only sound when the per-layer solver is deterministic for a
// given context. The default layer budget counts nodes and pivots, so it
// is; a wall-clock MILP budget is not, and cacheable() refuses it.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/solve_hooks.hpp"
#include "engine/layer_signature.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace cohls::engine {

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t stores = 0;
  std::int64_t evictions = 0;

  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class LayerSolutionCache final : public core::LayerSolveCache {
 public:
  /// `capacity` bounds the number of cached layer solutions across all
  /// shards; `shards` spreads lock contention (clamped to [1, capacity]).
  explicit LayerSolutionCache(std::size_t capacity = 4096, int shards = 16);

  /// Never throws business logic at callers: uncacheable contexts and
  /// signature mismatches simply miss. A miss leaves the signature in the
  /// context's memo slot, where the solve's `store` takes it from.
  [[nodiscard]] std::optional<core::LayerOutcome> lookup(
      const core::LayerSolveContext& context) override;
  void store(const core::LayerSolveContext& context,
             const core::LayerOutcome& outcome) override;

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Debug/test mode: on every hit, also solve the layer from scratch and
  /// assert the solutions are identical. Expensive — defeats the cache's
  /// purpose — but turns any signature-completeness bug into a loud failure.
  void set_verify_hits(bool verify) { verify_hits_ = verify; }

  // --- canonical solution form (exposed for white-box tests) ---------------
  struct CachedItem {
    int op_rank = 0;      ///< rank of the op within the layer (id order)
    int device_ref = 0;   ///< < |inherited|: inventory position; else created
    std::int64_t start = 0;
    std::int64_t duration = 0;
    std::int64_t transport = 0;

    friend bool operator==(const CachedItem&, const CachedItem&) = default;
  };
  struct CachedSolution {
    std::vector<CachedItem> items;  ///< in schedule emission order
    std::vector<model::DeviceConfig> created;  ///< instantiation order
    std::vector<int> consumed_hints;           ///< positions in request.hints
    bool used_ilp = false;
    double score = 0.0;

    friend bool operator==(const CachedSolution&, const CachedSolution&) = default;
  };

  /// Canonicalizes an outcome for storage.
  [[nodiscard]] static CachedSolution encode(const core::LayerSolveContext& context,
                                             const core::LayerOutcome& outcome);
  /// Reconstructs an outcome in the given context (instantiates the created
  /// devices into a copy of the context's inventory). A hit does no search
  /// work, so the outcome's MILP counters stay zero.
  [[nodiscard]] static core::LayerOutcome decode(const core::LayerSolveContext& context,
                                                 const CachedSolution& cached);

 private:
  struct Entry {
    LayerSignature key;
    CachedSolution value;
  };
  /// (hash, text) of a signature: buckets by the hash computed with the
  /// signature, compares the hash and then the text.
  using IndexKey = std::pair<std::uint64_t, std::string_view>;
  struct IndexHash {
    std::size_t operator()(const IndexKey& key) const noexcept { return key.first; }
  };
  struct Shard {
    mutable util::Mutex mutex;
    /// front = most recently used. The index is lookup-only (find/erase/
    /// emplace) — it is never iterated, so its unordered order can't leak
    /// into any output (cohls_check S101 guards the invariant).
    std::list<Entry> lru COHLS_GUARDED_BY(mutex);
    std::unordered_map<IndexKey, std::list<Entry>::iterator, IndexHash> index
        COHLS_GUARDED_BY(mutex);
    std::int64_t hits COHLS_GUARDED_BY(mutex) = 0;
    std::int64_t misses COHLS_GUARDED_BY(mutex) = 0;
    std::int64_t stores COHLS_GUARDED_BY(mutex) = 0;
    std::int64_t evictions COHLS_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t hash) {
    return shards_[static_cast<std::size_t>(hash % shards_.size())];
  }

  std::size_t capacity_;
  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  bool verify_hits_ = false;
};

}  // namespace cohls::engine
