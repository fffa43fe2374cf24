#include "schedule/transport_plan.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cohls::schedule {

Minutes TransportProgression::term(int k) const {
  COHLS_EXPECT(terms >= 1, "progression needs at least one term");
  COHLS_EXPECT(minimum <= maximum, "progression minimum exceeds maximum");
  COHLS_EXPECT(k >= 0, "term index must be non-negative");
  if (terms == 1 || k >= terms) {
    return k >= terms ? maximum : minimum;
  }
  const std::int64_t span = (maximum - minimum).count();
  const std::int64_t step_num = span * k;
  return minimum + Minutes{step_num / (terms - 1)};
}

TransportPlan::TransportPlan(Minutes uniform) : uniform_(uniform) {
  COHLS_EXPECT(uniform >= Minutes{0}, "transport time must be non-negative");
}

namespace {

bool edge_before(const std::pair<std::pair<OperationId, OperationId>, Minutes>& entry,
                 const std::pair<OperationId, OperationId>& edge) {
  return entry.first < edge;
}

}  // namespace

Minutes TransportPlan::edge_time(OperationId parent, OperationId child) const {
  const Edge edge{parent, child};
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), edge, edge_before);
  return it == edges_.end() || it->first != edge ? uniform_ : it->second;
}

void TransportPlan::set_edge_time(OperationId parent, OperationId child, Minutes time) {
  COHLS_EXPECT(time >= Minutes{0}, "transport time must be non-negative");
  const Edge edge{parent, child};
  // Refinement writes edges in ascending order, so appending is the common case.
  if (edges_.empty() || edges_.back().first < edge) {
    edges_.emplace_back(edge, time);
    return;
  }
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), edge, edge_before);
  if (it->first == edge) {
    it->second = time;
  } else {
    edges_.insert(it, {edge, time});
  }
}

}  // namespace cohls::schedule
