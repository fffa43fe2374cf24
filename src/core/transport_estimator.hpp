// Transportation-time refinement (Sec. 4.1). After a full synthesis pass,
// each dependency edge's transport time is refined to a term of the
// user-defined arithmetic progression: paths used by more transfers are
// assumed to be laid out shorter, so their transfers get smaller terms;
// same-device transfers get zero.
#pragma once

#include "model/assay.hpp"
#include "schedule/transport_plan.hpp"
#include "schedule/types.hpp"

namespace cohls::core {

/// Builds the refined plan from the latest binding solution. Edges whose
/// endpoints were co-located get 0; inter-device edges get the progression
/// term of their path's usage rank (most-used path -> minimum term). Edges
/// not bound in `result` keep the fallback constant. Throws
/// PreconditionError when an item's operation lies outside the assay.
[[nodiscard]] schedule::TransportPlan refine_transport(
    const schedule::SynthesisResult& result, const model::Assay& assay,
    const schedule::TransportProgression& progression, Minutes fallback);

}  // namespace cohls::core
