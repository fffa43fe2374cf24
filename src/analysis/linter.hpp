// Static assay analysis: a pass manager that lints a parsed-but-unchecked
// AssaySource against the chip configuration *before* any solver runs, so a
// malformed or provably infeasible spec is rejected with line-accurate
// structured diagnostics instead of surfacing as an MILP "infeasible" deep
// inside the engine.
//
// Passes (in run order; see the README rule catalog for every code):
//   structure     E101 duplicate ids, E102 undefined parent refs,
//                 E106 non-dense/forward ordering, W104 duplicate parents
//   cycles        E103 dependency cycles, with the cycle path reported
//   durations     E105 non-positive (minimum) durations
//   binding       E104 unbindable operations (container/capacity/accessory
//                 requirements no device configuration can satisfy), with a
//                 nearest-device note
//   threshold     E108 non-positive layer threshold t with indeterminates
//   accessories   W103 custom accessory registered but never used
//   layering      W101 over-t indeterminate clusters (dry-run of
//                 Algorithm 1's dependency phase)
//   device-demand E107 concurrent indeterminate device demand beyond |D|,
//                 with a per-capacity-class breakdown
//   storage       W102 crossing-intermediate storage lower bound beyond |D|
//
// The last three require a dependency graph and run best-effort: cycle and
// undefined-reference edges are dropped from the dry-run graph, and only
// duplicate-id errors (which make operation identity ambiguous) disable the
// graph passes entirely.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "diag/diagnostic.hpp"
#include "io/assay_source.hpp"

namespace cohls::analysis {

/// Chip-configuration facts the lint rules check demand against; mirror the
/// synthesis options the assay will later be solved under.
struct AnalysisOptions {
  /// |D|: maximal number of devices integrated on the chip.
  int max_devices = 25;
  /// The layer threshold t of Algorithm 1.
  int indeterminate_threshold = 10;
};

struct LintReport {
  std::vector<diag::Diagnostic> diagnostics;

  [[nodiscard]] bool has_errors() const { return diag::has_errors(diagnostics); }
  /// True when synthesis may proceed: no errors, and no warnings either when
  /// `warnings_as_errors` is set.
  [[nodiscard]] bool clean(bool warnings_as_errors = false) const {
    return !has_errors() &&
           (!warnings_as_errors ||
            diag::count(diagnostics, diag::Severity::Warning) == 0);
  }
};

/// Maps an operation id to the index (into source.operations) of its first
/// definition by a binary search over the sorted first definitions.
class IdIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit IdIndex(const std::vector<io::SourceOperation>& operations);

  /// Index of the first operation defining `id`; npos when none does.
  [[nodiscard]] std::size_t find(long id) const;

 private:
  /// (id, first index), ascending by id
  std::vector<std::pair<long, std::size_t>> sorted_;
};

/// A graph over operation indices in compressed rows: the neighbours of
/// node i are items[offsets[i] .. offsets[i + 1]), in insertion order.
struct Adjacency {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> items;

  [[nodiscard]] std::span<const std::size_t> operator[](std::size_t i) const {
    return std::span<const std::size_t>(items).subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// Shared state handed to every pass. The index is ready before the first
/// pass; graph-derived facts are only populated when `graph_ok` (no
/// duplicate ids).
struct PassContext {
  const io::AssaySource& source;
  const AnalysisOptions& options;

  IdIndex index_of;
  /// index_of.find of every parent reference, parallel to
  /// source.parent_ids (IdIndex::npos for an undefined one).
  std::vector<std::size_t> parent_index;

  bool graph_ok = false;
  /// Resolved backward edges by vector index (only defined, first-definition
  /// endpoints, each parent before its child in file order; populated when
  /// graph_ok).
  Adjacency parents;
  Adjacency children;
  /// Dependency-phase layer of Algorithm 1 (the indeterminate-ancestor
  /// depth) per operation; populated when graph_ok.
  std::vector<int> dependency_layer;
  /// The indeterminate operations by (dependency layer, file order): each
  /// layer's cluster is one run. Populated when graph_ok.
  std::vector<std::size_t> indeterminate_by_layer;
};

struct Pass {
  std::string name;
  /// Skipped when the dependency graph has structural errors.
  bool needs_graph = false;
  std::function<void(PassContext&, std::vector<diag::Diagnostic>&)> run;
};

/// Ordered pass pipeline. Custom passes can be appended; the default
/// pipeline implements the full rule catalog.
class PassManager {
 public:
  void add(Pass pass);
  [[nodiscard]] const std::vector<Pass>& passes() const { return passes_; }

  /// Runs every pass (skipping needs_graph passes on structurally broken
  /// inputs) and returns the location-sorted report.
  [[nodiscard]] LintReport run(const io::AssaySource& source,
                               const AnalysisOptions& options) const;

  /// A new copy of the full rule catalog's pipeline.
  [[nodiscard]] static PassManager default_passes();

 private:
  std::vector<Pass> passes_;
};

/// Lints with the default pass pipeline, built once per process. Linear in
/// the operations and parent references when the ids are 0..n-1, plus a
/// sort of each parents= list and of the diagnostics.
[[nodiscard]] LintReport lint_assay(const io::AssaySource& source,
                                    const AnalysisOptions& options = {});

/// The COHLS-E100 diagnostic of a ParseError: its bare message at its line
/// and column.
[[nodiscard]] diag::Diagnostic parse_error_diagnostic(const io::ParseError& error);

/// Convenience: parse + lint. A lexical ParseError becomes a single
/// COHLS-E100 diagnostic instead of an exception.
[[nodiscard]] LintReport lint_assay_text(const std::string& text,
                                         const AnalysisOptions& options = {});

}  // namespace cohls::analysis
