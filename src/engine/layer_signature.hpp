// Canonical layer-solve signatures: the cache key of the layer-solution
// cache. A signature is a complete, normalized serialization of everything
// the per-layer solver reads — the layer's operation DAG (attributes,
// intra-layer dependency edges with transport times, prior-parent bindings,
// and the attribute structure of the full descendant cone the scheduler's
// lookahead inspects), the inherited device inventory, hint and path
// context, the cost model, and the engine budgets.
//
// Normalization renumbers operations and devices to dense ranks and drops
// names and raw ids, so two layers produced by replicated per-cell
// pipelines — or by re-submitting the same assay — share one key. The
// normalization is deliberately restricted to *monotone* relabelings: the
// list scheduler and the ILP tie-break in id order, so an arbitrary
// permutation between isomorphic layers would not commute with the solver
// and a cache hit could return a result that differs from a fresh solve,
// breaking bit-identical determinism. Under monotone relabeling the solver
// is equivariant, and a hit is exactly a fresh solve.
//
// Equal signature strings imply equal solver inputs; the cache compares
// full strings (not just hashes), so hash collisions cannot alias two
// different layers.
//
// Cost contract: one flat pass over dense per-id arrays, returned
// exact-size (it stays resident in a cache entry), built at most once per
// cacheable solve (a missed lookup hands it to the store; DESIGN.md §5).
#pragma once

#include <cstdint>
#include <string>

#include "core/solve_hooks.hpp"

namespace cohls::engine {

struct LayerSignature {
  /// The complete canonical serialization (the exact-compare cache key).
  std::string text;
  /// FNV-1a hash of `text`: selects the shard and buckets its index, so the
  /// text is hashed once per key.
  std::uint64_t hash = 0;
};

/// False for contexts the cache must not serve: custom binding policies
/// (std::function hooks have no canonical form), recovery pins, MILP warm
/// starts and wall-limited MILP budgets (load-dependent results).
[[nodiscard]] bool cacheable(const core::LayerSolveContext& context);

/// Builds the canonical signature; requires cacheable(context).
[[nodiscard]] LayerSignature layer_signature(const core::LayerSolveContext& context);

[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

}  // namespace cohls::engine
