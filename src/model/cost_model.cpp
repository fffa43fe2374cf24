#include "model/cost_model.hpp"

namespace cohls::model {

CostModel::CostModel()
    // Indexed by Capacity {Tiny, Small, Medium, Large}. Entries for
    // capacities a container kind cannot take (constraints (3)-(4)) are
    // still populated so accessors never read garbage, but the synthesis
    // models never select them.
    : ring_area_{4.0, 6.0, 9.0, 12.0},
      chamber_area_{1.0, 2.0, 3.0, 4.5},
      ring_processing_{3.0, 4.0, 5.0, 6.0},
      chamber_processing_{1.0, 1.5, 2.0, 3.0},
      weight_time_(1.0),
      weight_area_(3.0),
      weight_processing_(3.0),
      weight_paths_(15.0) {}

double CostModel::area(ContainerKind kind, Capacity capacity) const {
  return kind == ContainerKind::Ring ? ring_area_[capacity_index(capacity)]
                                     : chamber_area_[capacity_index(capacity)];
}

void CostModel::set_area(ContainerKind kind, Capacity capacity, double area) {
  COHLS_EXPECT(area >= 0.0, "area must be non-negative");
  (kind == ContainerKind::Ring ? ring_area_ : chamber_area_)[capacity_index(capacity)] = area;
}

double CostModel::container_processing(ContainerKind kind, Capacity capacity) const {
  return kind == ContainerKind::Ring ? ring_processing_[capacity_index(capacity)]
                                     : chamber_processing_[capacity_index(capacity)];
}

void CostModel::set_container_processing(ContainerKind kind, Capacity capacity, double cost) {
  COHLS_EXPECT(cost >= 0.0, "processing cost must be non-negative");
  (kind == ContainerKind::Ring ? ring_processing_
                               : chamber_processing_)[capacity_index(capacity)] = cost;
}

double CostModel::accessory_set_processing(const AccessoryRegistry& registry,
                                           AccessorySet set) const {
  return registry.total_processing_cost(set);
}

void CostModel::set_weights(double time, double area, double processing, double paths) {
  COHLS_EXPECT(time >= 0.0 && area >= 0.0 && processing >= 0.0 && paths >= 0.0,
               "objective weights must be non-negative");
  weight_time_ = time;
  weight_area_ = area;
  weight_processing_ = processing;
  weight_paths_ = paths;
}

}  // namespace cohls::model
