// Transportation-time plan (Sec. 4.1). The first synthesis pass charges a
// user-defined constant to every inter-device transfer; after a full pass,
// per-edge times are refined to terms of a user-defined arithmetic
// progression — the more often a path is used, the shorter its channel is
// assumed to be laid out, hence the shorter its transfer time. Same-device
// transfers always cost zero.
#pragma once

#include <vector>

#include "model/assay.hpp"
#include "util/check.hpp"
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

/// Per-dependency-edge transport times used by scheduling and the ILP: one
/// uniform time for every edge of any assay, or one time per EdgeId of the
/// assay the plan was made for. Every lookup is O(1).
class TransportPlan {
 public:
  /// Initial plan: every edge costs `uniform` (the paper's constant `t`).
  explicit TransportPlan(Minutes uniform = Minutes{2});
  /// A per-edge plan over `assay`'s edges, each starting at `uniform`.
  TransportPlan(Minutes uniform, const model::Assay& assay);

  /// Transport charged on `edge` when its endpoints sit on different
  /// devices. (Zero for same-device transfers is applied by callers, who
  /// know the binding.) Throws PreconditionError for an edge outside a
  /// per-edge plan.
  [[nodiscard]] Minutes edge_time(EdgeId edge) const {
    if (times_.empty()) {
      return uniform_;
    }
    COHLS_EXPECT(edge.valid() && edge.index() < times_.size(),
                 "edge outside the transport plan's assay");
    return times_[edge.index()];
  }

  /// Sets one edge's time; the plan must be a per-edge plan.
  void set_edge_time(EdgeId edge, Minutes time);

  [[nodiscard]] Minutes uniform_time() const { return uniform_; }

  /// True when the plan may be read against `assay`: it is uniform, or its
  /// per-edge times cover exactly `assay`'s edges.
  [[nodiscard]] bool fits(const model::Assay& assay) const {
    return times_.empty() || times_.size() == static_cast<std::size_t>(assay.edge_count());
  }

 private:
  Minutes uniform_;
  /// Per-edge times indexed by EdgeId; empty for a uniform plan.
  std::vector<Minutes> times_;
};

}  // namespace cohls::schedule
