#include "schedule/objective.hpp"

#include <gtest/gtest.h>

namespace cohls::schedule {
namespace {

struct Fixture {
  model::Assay assay{"t"};
  SynthesisResult result;

  Fixture() {
    model::OperationSpec a;
    a.name = "a";
    a.duration = 10_min;
    const auto a_id = assay.add_operation(a);
    model::OperationSpec b;
    b.name = "b";
    b.duration = 20_min;
    b.parents = {a_id};
    (void)assay.add_operation(b);

    result.devices = model::DeviceInventory(4);
    const model::DeviceConfig chamber{model::ContainerKind::Chamber,
                                      model::Capacity::Tiny, {}};
    const auto d0 = result.devices.instantiate(chamber, LayerId{0});
    const auto d1 = result.devices.instantiate(chamber, LayerId{0});
    result.layers.push_back({LayerId{0},
                             {{OperationId{0}, d0, 0_min, 10_min, 1_min},
                              {OperationId{1}, d1, 11_min, 20_min, 0_min}}});
  }
};

TEST(Objective, BreaksDownComponents) {
  const Fixture f;
  model::CostModel costs;
  costs.set_weights(1.0, 2.0, 3.0, 5.0);
  const ObjectiveBreakdown b = evaluate_objective(f.result, f.assay, costs);
  EXPECT_DOUBLE_EQ(b.time_minutes, 31.0);
  const double chamber_area = costs.area(model::ContainerKind::Chamber, model::Capacity::Tiny);
  EXPECT_DOUBLE_EQ(b.area, 2 * chamber_area);
  EXPECT_DOUBLE_EQ(b.path_count, 1.0);
  EXPECT_DOUBLE_EQ(b.weighted_total,
                   1.0 * b.time_minutes + 2.0 * b.area + 3.0 * b.processing + 5.0 * 1.0);
}

TEST(Objective, UnusedInventorySlotsCostNothing) {
  Fixture f;
  // An extra instantiated-but-unused device must not count.
  (void)f.result.devices.instantiate(
      {model::ContainerKind::Ring, model::Capacity::Large, {}}, LayerId{0});
  const model::CostModel costs;
  const ObjectiveBreakdown b = evaluate_objective(f.result, f.assay, costs);
  const double chamber_area = costs.area(model::ContainerKind::Chamber, model::Capacity::Tiny);
  EXPECT_DOUBLE_EQ(b.area, 2 * chamber_area);
}

TEST(Objective, SharedDeviceCountedOnce) {
  model::Assay assay{"t"};
  model::OperationSpec a;
  a.name = "a";
  a.duration = 5_min;
  (void)assay.add_operation(a);
  a.name = "b";
  (void)assay.add_operation(a);
  SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const auto d = result.devices.instantiate(
      {model::ContainerKind::Chamber, model::Capacity::Tiny, {}}, LayerId{0});
  result.layers.push_back({LayerId{0},
                           {{OperationId{0}, d, 0_min, 5_min, 0_min},
                            {OperationId{1}, d, 5_min, 5_min, 0_min}}});
  const model::CostModel costs;
  const ObjectiveBreakdown b = evaluate_objective(result, assay, costs);
  EXPECT_DOUBLE_EQ(
      b.area, costs.area(model::ContainerKind::Chamber, model::Capacity::Tiny));
  EXPECT_DOUBLE_EQ(b.path_count, 0.0);
}

// Device ids index the used-device marks: an id outside the inventory must
// be a precondition error, never an out-of-bounds access.
TEST(Objective, RejectsDevicesOutsideTheInventory) {
  for (const int foreign : {-1, 2, 1 << 30}) {
    Fixture f;
    f.result.layers[0].items[1].device = DeviceId{foreign};
    EXPECT_THROW((void)evaluate_objective(f.result, f.assay, model::CostModel{}),
                 PreconditionError)
        << foreign;
  }
}

}  // namespace
}  // namespace cohls::schedule
