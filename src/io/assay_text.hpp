// A line-oriented text format for assays, so protocols can be described in
// files rather than C++. Round-trips exactly (costs are written in their
// shortest exact form):
//
//   assay "single-cell RT-qPCR"
//   accessory "droplet sorter" cost=3.5           # custom kinds only
//   operation 0 "capture" duration=8 container=ring capacity=medium
//       accessories={pump; cell trap} indeterminate      # one line in files
//   operation 1 "lysis" duration=10 accessories={heating pad} parents=0
//
// Operation ids must be dense and ascending (parents-first, mirroring the
// Assay builder contract). Lines, comments, whitespace and numbers follow
// util/lexer.hpp; durations are int32 and costs finite.
//
// assay_from_text is the strict one-shot entry point (parse + build, first
// error throws). For linting with line-accurate spans and multi-error
// reporting, use io::parse_assay_source (assay_source.hpp) plus
// analysis::lint_assay.
#pragma once

#include <iosfwd>
#include <string>

#include "io/assay_source.hpp"
#include "model/assay.hpp"

namespace cohls::io {

/// Serializes an assay to the text format (stable field order).
[[nodiscard]] std::string to_text(const model::Assay& assay);

/// Parses the text format into an assay.
[[nodiscard]] model::Assay assay_from_text(const std::string& text);

}  // namespace cohls::io
