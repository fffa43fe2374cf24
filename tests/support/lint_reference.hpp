// Test-only reference for the assay linter: the original implementation of
// analysis::lint_assay's default pipeline, with a std::map id index, a
// std::set per operation for repeated parents, one adjacency vector per
// operation and the indeterminate clusters kept in a std::map. The library
// linter works over flat arrays instead; the differential tests hold the
// two to identical diagnostics (code, severity, span, message, notes,
// fix-it and order).
#pragma once

#include <string>

#include "analysis/linter.hpp"
#include "io/assay_source.hpp"

namespace cohls::oracles {

/// analysis::lint_assay(source, options), computed the map-based way.
[[nodiscard]] analysis::LintReport lint_assay_reference(
    const io::AssaySource& source, const analysis::AnalysisOptions& options = {});

/// Empty when `a` and `b` hold the same diagnostics in the same order, equal
/// in code, severity, span, message, notes and fix-it; otherwise names the
/// first difference.
[[nodiscard]] std::string lint_difference(const analysis::LintReport& a,
                                          const analysis::LintReport& b);

}  // namespace cohls::oracles
