#include "sim/hazard.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "model/components.hpp"
#include "model/device.hpp"
#include "util/rng.hpp"

namespace cohls::sim {
namespace {

model::DeviceInventory small_inventory() {
  model::DeviceInventory devices{4};
  model::DeviceConfig pump_device;
  pump_device.container = model::ContainerKind::Ring;
  pump_device.capacity = model::Capacity::Medium;
  pump_device.accessories.insert(model::BuiltinAccessory::kPump);
  model::DeviceConfig heater_device;
  heater_device.container = model::ContainerKind::Chamber;
  heater_device.capacity = model::Capacity::Small;
  heater_device.accessories.insert(model::BuiltinAccessory::kHeatingPad);
  model::DeviceConfig bare_device;
  bare_device.container = model::ContainerKind::Chamber;
  bare_device.capacity = model::Capacity::Tiny;
  devices.instantiate(pump_device, LayerId{0});
  devices.instantiate(heater_device, LayerId{0});
  devices.instantiate(bare_device, LayerId{0});
  return devices;
}

TEST(Hazard, ParsesDefaultAndAccessoryClauses) {
  const model::AccessoryRegistry registry;
  const HazardModel model = parse_hazard_spec(
      "exp:5000; heating-pad=weibull:2000,1.5; default=exp:9000", registry);
  ASSERT_EQ(model.rules().size(), 3u);
  EXPECT_EQ(model.rules()[0].accessory, -1);
  EXPECT_EQ(model.rules()[0].dist.family, HazardFamily::Exponential);
  EXPECT_DOUBLE_EQ(model.rules()[0].dist.scale, 5000.0);
  EXPECT_EQ(model.rules()[1].accessory, model::BuiltinAccessory::kHeatingPad);
  EXPECT_EQ(model.rules()[1].dist.family, HazardFamily::Weibull);
  EXPECT_DOUBLE_EQ(model.rules()[1].dist.shape, 1.5);
  EXPECT_EQ(model.rules()[2].accessory, -1);
}

TEST(Hazard, RejectsMalformedSpecs) {
  const model::AccessoryRegistry registry;
  EXPECT_THROW(parse_hazard_spec("exp", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("exp:0", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("exp:-3", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("weibull:100", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("gamma:1,2", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("warp-drive=exp:10", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("exp:10x", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("exp:inf", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("weibull:100,inf", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("exp:+100", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("exp:0x10", registry), HazardSpecError);
  EXPECT_THROW(parse_hazard_spec("weibull:100,nan", registry), HazardSpecError);
}

TEST(Hazard, EmptySpecYieldsEmptyModel) {
  const model::AccessoryRegistry registry;
  EXPECT_TRUE(parse_hazard_spec("", registry).empty());
  EXPECT_TRUE(parse_hazard_spec(" ; ", registry).empty());
}

TEST(Hazard, SamplingIsOrderIndependentPerRunAndDevice) {
  const model::AccessoryRegistry registry;
  const HazardModel model = parse_hazard_spec("exp:200", registry);
  const model::DeviceInventory devices = small_inventory();
  const Minutes horizon{1'000'000};

  // Expanding run 7 alone must equal run 7 inside a 0..9 sweep.
  FaultPlan alone;
  model.sample_into(alone, devices, 99, 7, horizon);
  FaultPlan swept;
  for (std::uint64_t run = 0; run < 10; ++run) {
    FaultPlan plan;
    model.sample_into(plan, devices, 99, run, horizon);
    if (run == 7) {
      swept = plan;
    }
  }
  ASSERT_EQ(alone.events.size(), swept.events.size());
  for (std::size_t i = 0; i < alone.events.size(); ++i) {
    EXPECT_EQ(alone.events[i], swept.events[i]);
  }

  // Different runs draw different plans (overwhelmingly likely with a
  // 200-minute mean and three devices).
  FaultPlan other;
  model.sample_into(other, devices, 99, 8, horizon);
  EXPECT_NE(to_text(alone), to_text(other));
}

TEST(Hazard, AccessoryRulesOnlyHitCarryingDevices) {
  const model::AccessoryRegistry registry;
  // Pumps die instantly; nothing else is modelled.
  HazardModel model = parse_hazard_spec("pump=weibull:0.001,1", registry);
  const model::DeviceInventory devices = small_inventory();
  FaultPlan plan;
  model.sample_into(plan, devices, 1, 0, Minutes{1'000'000});
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].device, devices.devices()[0].id);
  EXPECT_EQ(plan.events[0].kind, FaultKind::DeviceFailure);
}

TEST(Hazard, HorizonClipsSampledFailures) {
  const model::AccessoryRegistry registry;
  const HazardModel model = parse_hazard_spec("exp:1000000", registry);
  const model::DeviceInventory devices = small_inventory();
  FaultPlan plan;
  model.sample_into(plan, devices, 3, 0, Minutes{1});
  // Mean of a million minutes: essentially nothing lands before minute 1.
  EXPECT_TRUE(plan.events.empty());
}

TEST(Hazard, ExtendedHorizonAdmitsExactlyTheClippedEvents) {
  // The mission loop's re-anchoring contract: each recovery round re-samples
  // the same (seed, run) counter streams with a horizon pushed out to the
  // continuation's worst-case end. The longer draw must reproduce every
  // short-horizon event bit-identically and admit exactly the events the
  // shorter horizon clipped — nothing else may move.
  const model::AccessoryRegistry registry;
  const HazardModel model = parse_hazard_spec("exp:200", registry);
  const model::DeviceInventory devices = small_inventory();
  const Minutes short_h{120};
  const Minutes long_h{1'000'000};

  std::size_t admitted = 0;
  for (std::uint64_t run = 0; run < 16; ++run) {
    FaultPlan clipped;
    FaultPlan extended;
    model.sample_into(clipped, devices, 42, run, short_h);
    model.sample_into(extended, devices, 42, run, long_h);

    std::vector<FaultEvent> expected;
    for (const FaultEvent& event : extended.events) {
      if (event.at < short_h) {
        expected.push_back(event);
      } else {
        ++admitted;
      }
    }
    ASSERT_EQ(clipped.events.size(), expected.size()) << "run " << run;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(clipped.events[i], expected[i]) << "run " << run;
    }
  }
  // With a 200-minute mean over three devices, the extension must actually
  // admit some previously clipped failures across 16 runs.
  EXPECT_GT(admitted, 0u);
}

TEST(Hazard, ExponentialSampleMatchesInverseCdf) {
  HazardDistribution dist;
  dist.family = HazardFamily::Exponential;
  dist.scale = 100.0;
  EXPECT_EQ(dist.sample(0.0), Minutes{0});
  // -100 ln(1 - 0.5) = 69.3... -> ceil 70.
  EXPECT_EQ(dist.sample(0.5), Minutes{70});

  HazardDistribution weibull;
  weibull.family = HazardFamily::Weibull;
  weibull.scale = 100.0;
  weibull.shape = 2.0;
  // 100 * sqrt(-ln(0.5)) = 83.2... -> ceil 84.
  EXPECT_EQ(weibull.sample(0.5), Minutes{84});
  EXPECT_THROW(static_cast<void>(weibull.sample(1.0)), PreconditionError);
}

TEST(Hazard, StreamSeedsDisperse) {
  // Counter-derived stream seeds must differ across any coordinate.
  const std::uint64_t base = derive_stream_seed(1, 2, 3);
  EXPECT_NE(base, derive_stream_seed(2, 2, 3));
  EXPECT_NE(base, derive_stream_seed(1, 3, 3));
  EXPECT_NE(base, derive_stream_seed(1, 2, 4));
  EXPECT_EQ(base, derive_stream_seed(1, 2, 3));
}

}  // namespace
}  // namespace cohls::sim
