#include "model/operation.hpp"

namespace cohls::model {

Operation::Operation(OperationId id, OperationSpec spec)
    : name_(std::move(spec.name)),
      duration_(spec.duration),
      id_(id),
      accessories_(spec.accessories),
      container_(spec.container),
      capacity_(spec.capacity),
      indeterminate_(spec.indeterminate) {
  COHLS_EXPECT(id_.valid(), "operation id must be valid");
  COHLS_EXPECT(!name_.empty(), "operation name must be non-empty");
  COHLS_EXPECT(duration_ > Minutes{0},
               "operation duration (or indeterminate minimum) must be positive");
  COHLS_EXPECT(spec.parents.empty(), "parents exist only inside an assay");
  if (container_.has_value() && capacity_.has_value()) {
    COHLS_EXPECT(capacity_allowed(*container_, *capacity_),
                 "requested capacity is not available for the requested container kind");
  }
}

}  // namespace cohls::model
