// Test-only reference for the layer-cache key: the original implementation
// of engine::layer_signature, which collects the descendant cone in a
// std::set, ranks it through a std::map, looks every edge's ranks and prior
// bindings up by key and formats the whole key through a std::ostringstream.
// The library builder writes the same text in one flat pass over dense
// arrays; LayerSignatureReference.* holds the two to byte-identical keys.
#pragma once

#include <string>

#include "core/solve_hooks.hpp"

namespace cohls::oracles {

/// engine::layer_signature(context).text, computed the stream-based way.
/// Only meaningful for contexts engine::cacheable accepts.
[[nodiscard]] std::string layer_signature_reference(const core::LayerSolveContext& context);

}  // namespace cohls::oracles
