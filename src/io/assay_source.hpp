// Span-preserving source form of the assay text format. parse_assay_source
// runs only the *lexical* phase: it records every directive together with
// its 1-based source line, and keeps parent references as raw ids exactly as
// written. All semantic checks — duplicate or undefined ids, density,
// dependency cycles, positive durations, bindability — are deferred to the
// analysis linter (src/analysis) or to build(). That split is what lets the
// linter report many structured diagnostics with line-accurate spans where
// assay_from_text must stop at the first builder precondition.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/assay.hpp"

namespace cohls::io {

/// Thrown on malformed input, with the offending line number in the message
/// (and, when known, in line() and column()).
class ParseError : public std::runtime_error {
 public:
  /// A document-level error, such as a missing header.
  explicit ParseError(const std::string& message)
      : std::runtime_error(message), message_(message) {}
  ParseError(int line, const std::string& message, int column = 0)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line),
        column_(column),
        message_(message) {}

  /// 1-based source line of the error; 0 when unknown (document-level).
  [[nodiscard]] int line() const { return line_; }
  /// 1-based column of the offending token; 0 when the error concerns the
  /// whole line or document.
  [[nodiscard]] int column() const { return column_; }
  /// The message without its "line N: " tag.
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  int line_ = 0;
  int column_ = 0;
  std::string message_;
};

/// A custom accessory directive with its source line.
struct SourceAccessory {
  std::string name;
  double cost = 0.0;
  int line = 0;
};

/// One operation directive with its source span.
struct SourceOperation {
  long id = -1;
  /// Spec with `parents` left empty: the raw references live in
  /// AssaySource::parent_ids so that undefined, forward and cyclic ids
  /// survive parsing for the linter.
  model::OperationSpec spec;
  /// This operation's references are parent_ids[first_parent ..
  /// first_parent + parent_count), as written.
  std::uint32_t first_parent = 0;
  std::uint32_t parent_count = 0;
  int line = 0;
  /// 1-based column of the 'operation' keyword.
  int column = 0;
};

/// The parsed-but-unchecked document.
struct AssaySource {
  std::string name;
  int name_line = 0;
  model::AccessoryRegistry registry;
  std::vector<SourceAccessory> accessories;  ///< custom kinds, in file order
  std::vector<SourceOperation> operations;   ///< in file order
  /// Every operation's parent references, operation after operation.
  std::vector<long> parent_ids;

  /// The parent references of `op`, an element of `operations`.
  [[nodiscard]] std::span<const long> parents(const SourceOperation& op) const {
    return std::span<const long>(parent_ids).subspan(op.first_parent, op.parent_count);
  }

  /// Line of the operation defining `id` (first definition wins); 0 when no
  /// operation defines it.
  [[nodiscard]] int line_of(long id) const;

  /// Builds the model::Assay, enforcing the builder contract (dense
  /// ascending ids, parents-first, positive durations). Throws ParseError
  /// tagged with the offending line on any violation. Consumes the source:
  /// the names and the registry move into the assay.
  [[nodiscard]] model::Assay build() &&;
};

/// Lexes the text format. Throws ParseError only on lexical problems
/// (unknown directive or field, malformed or out-of-range number, empty or
/// unterminated string, unknown accessory name, missing or duplicate
/// 'assay' header). One pass over the text; apart from the source's own
/// vectors, it allocates only each operation's name.
[[nodiscard]] AssaySource parse_assay_source(const std::string& text);

}  // namespace cohls::io
