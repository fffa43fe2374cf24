// A line-oriented text format for synthesis results, so a synthesized
// binding + hybrid schedule can be stored, diffed, and handed to downstream
// layout / control-synthesis tools. Round-trips exactly:
//
//   result max_devices=25
//   device 0 container=ring capacity=medium accessories={pump} created_in=0
//   layer 0
//   schedule op=0 device=0 start=0 duration=10 transport=2
//
// Devices and layers must appear in id order; schedule lines belong to the
// most recent `layer` line.
#pragma once

#include <string>

#include "model/assay.hpp"
#include "schedule/types.hpp"

// Reuse the ParseError type of the assay format.
#include "io/assay_text.hpp"

namespace cohls::io {

/// Serializes a synthesis result (stable field order).
[[nodiscard]] std::string to_text(const schedule::SynthesisResult& result,
                                  const model::Assay& assay);

/// Parses a result back. The assay provides the accessory registry used to
/// resolve accessory names and is also used for sanity limits; full
/// constraint validation remains the job of schedule::certify_result.
[[nodiscard]] schedule::SynthesisResult result_from_text(const std::string& text,
                                                         const model::Assay& assay);

}  // namespace cohls::io
