// Schedule certification: every invariant the ILP constraints (5)-(14)
// encode, re-checked independently on the produced schedule. Both synthesis
// engines (MILP decode and heuristic) must produce results that pass this
// certifier, which is also the backbone of the property-test suites.
//
// certify_result reports through the structured-diagnostics type shared with
// the pre-solve linter; every rule has a stable COHLS-E2xx code (see
// diag/diagnostic.hpp and the README rule catalog) so tools and tests match
// on codes, never on message text.
#pragma once

#include <vector>

#include "diag/diagnostic.hpp"
#include "schedule/transport_plan.hpp"
#include "schedule/types.hpp"

namespace cohls::schedule {

/// Certifies a synthesis result against the assay. Returns one diagnostic
/// per violated invariant (empty means certified). Checked invariants and
/// their codes:
///  - each assay operation is scheduled exactly once (E201 unknown op,
///    E202 scheduled twice, E203 missing) — structural problems make the
///    remaining checks meaningless, so certification stops there;
///  - non-negative starts (E204) and declared durations (E205);
///  - bindings reference existing devices (E206) whose configuration
///    satisfies the operation's component requirements, constraints
///    (5)-(8) (E207);
///  - a child never sits in an earlier layer than a parent (E208);
///    same-layer children start only after the parent completes plus
///    transport when devices differ, constraint (9) (E209); children of
///    prior-layer parents wait for incoming transport (E210);
///  - operations on the same device never overlap, counting the outgoing
///    transport slot as occupation, constraints (10)-(13) (E211);
///  - indeterminate operations end their layer: no operation starts after
///    an indeterminate operation's minimum completion, constraint (14)
///    (E212), none has a child in its own layer (E213), and indeterminate
///    operations occupy pairwise-distinct devices (E214).
///
/// Certifier diagnostics carry no source span (they describe a schedule,
/// not a file).
[[nodiscard]] std::vector<diag::Diagnostic> certify_result(
    const SynthesisResult& result, const model::Assay& assay,
    const TransportPlan& transport);

}  // namespace cohls::schedule
