// Transportation-time plan (Sec. 4.1). The first synthesis pass charges a
// user-defined constant to every inter-device transfer; after a full pass,
// per-edge times are refined to terms of a user-defined arithmetic
// progression — the more often a path is used, the shorter its channel is
// assumed to be laid out, hence the shorter its transfer time. Same-device
// transfers always cost zero.
#pragma once

#include <utility>
#include <vector>

#include "model/assay.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cohls::schedule {

/// The user-defined arithmetic progression of candidate transport times.
struct TransportProgression {
  Minutes minimum{1};
  Minutes maximum{4};
  int terms = 4;

  /// The k-th term (0-based, ascending). k beyond the last term clamps.
  [[nodiscard]] Minutes term(int k) const;
};

/// Per-dependency-edge transport times used by scheduling and the ILP.
/// Edge (parent, child) lookups fall back to the default constant.
class TransportPlan {
 public:
  /// Initial plan: every edge costs `uniform` (the paper's constant `t`).
  explicit TransportPlan(Minutes uniform = Minutes{2});

  /// Transport charged on edge parent->child when they sit on different
  /// devices. (Zero for same-device transfers is applied by callers, who
  /// know the binding.)
  [[nodiscard]] Minutes edge_time(OperationId parent, OperationId child) const;

  void set_edge_time(OperationId parent, OperationId child, Minutes time);

  [[nodiscard]] Minutes uniform_time() const { return uniform_; }

 private:
  using Edge = std::pair<OperationId, OperationId>;

  Minutes uniform_;
  /// Refined edges, sorted by (parent, child).
  std::vector<std::pair<Edge, Minutes>> edges_;
};

}  // namespace cohls::schedule
