#include "schedule/transport_plan.hpp"

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

TransportPlan::TransportPlan(Minutes uniform, const model::Assay& assay)
    : TransportPlan(uniform) {
  times_.assign(static_cast<std::size_t>(assay.edge_count()), uniform);
}

void TransportPlan::set_edge_time(EdgeId edge, Minutes time) {
  COHLS_EXPECT(time >= Minutes{0}, "transport time must be non-negative");
  COHLS_EXPECT(edge.valid() && edge.index() < times_.size(),
               "edge outside the transport plan's assay");
  times_[edge.index()] = time;
}

}  // namespace cohls::schedule
