// The certifier is the executable form of constraints (5)-(14); these tests
// feed it hand-built valid and deliberately broken schedules and match on
// the stable diagnostic codes (never on message text, which may evolve).
#include "schedule/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace cohls::schedule {
namespace {

using model::BuiltinAccessory;
using model::Capacity;
using model::ContainerKind;

bool has_code(const std::vector<diag::Diagnostic>& diagnostics, const char* code) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [code](const diag::Diagnostic& d) { return d.code == code; });
}

struct Fixture {
  model::Assay assay{"t"};
  OperationId a, b, ind;
  SynthesisResult result;
  TransportPlan transport{2_min};
  DeviceId d0, d1;

  Fixture() {
    model::OperationSpec sa;
    sa.name = "a";
    sa.duration = 10_min;
    sa.accessories = {BuiltinAccessory::kPump};
    a = assay.add_operation(sa);

    model::OperationSpec sb;
    sb.name = "b";
    sb.duration = 5_min;
    sb.parents = {a};
    b = assay.add_operation(sb);

    model::OperationSpec si;
    si.name = "capture";
    si.duration = 8_min;
    si.indeterminate = true;
    ind = assay.add_operation(si);

    result.devices = model::DeviceInventory(4);
    d0 = result.devices.instantiate(
        {ContainerKind::Ring, Capacity::Small, {BuiltinAccessory::kPump}}, LayerId{0});
    d1 = result.devices.instantiate({ContainerKind::Chamber, Capacity::Tiny, {}},
                                    LayerId{0});
    // Valid single layer: a on d0 [0,10]; b on d0 [10,15]; ind on d1 at the
    // end [10,18].
    result.layers.push_back({LayerId{0},
                             {{a, d0, 0_min, 10_min, 0_min},
                              {b, d0, 10_min, 5_min, 0_min},
                              {ind, d1, 10_min, 8_min, 0_min}}});
  }
};

TEST(Certify, AcceptsAValidSchedule) {
  const Fixture f;
  EXPECT_TRUE(certify_result(f.result, f.assay, f.transport).empty());
}

TEST(Certify, DetectsMissingOperation) {
  Fixture f;
  f.result.layers[0].items.pop_back();
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kMissingOperation));
}

TEST(Certify, DetectsDuplicateOperation) {
  Fixture f;
  f.result.layers[0].items.push_back({f.a, f.d1, 50_min, 10_min, 0_min});
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kDuplicateSchedule));
}

TEST(Certify, DetectsOperationOutsideAssay) {
  Fixture f;
  f.result.layers[0].items[0].op = OperationId{99};
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kUnknownOperation));
}

// Ids index the certifier's placement array: any id outside the assay or
// the inventory must be reported, never dereferenced.
TEST(Certify, ReportsEveryOutOfRangeOperationId) {
  for (const int foreign : {-1, 3, 1 << 30}) {
    Fixture f;
    f.result.layers[0].items[1].op = OperationId{foreign};
    const auto diagnostics = certify_result(f.result, f.assay, f.transport);
    EXPECT_TRUE(has_code(diagnostics, diag::codes::kUnknownOperation)) << foreign;
    EXPECT_TRUE(has_code(diagnostics, diag::codes::kMissingOperation)) << foreign;
  }
}

TEST(Certify, ReportsEveryOutOfRangeDeviceId) {
  for (const int foreign : {-1, 2, 1 << 30}) {
    Fixture f;
    f.result.layers[0].items[2].device = DeviceId{foreign};
    const auto diagnostics = certify_result(f.result, f.assay, f.transport);
    ASSERT_EQ(diagnostics.size(), 1u) << foreign;
    EXPECT_EQ(diagnostics[0].code, diag::codes::kUnknownDevice) << foreign;
  }
}

TEST(Certify, DetectsWrongDuration) {
  Fixture f;
  f.result.layers[0].items[0].duration = 99_min;
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kWrongDuration));
}

TEST(Certify, DetectsIncompatibleBinding) {
  Fixture f;
  // a needs a pump; d1 has none.
  f.result.layers[0].items[0].device = f.d1;
  f.result.layers[0].items[1].device = f.d1;  // keep b with its parent
  f.result.layers[0].items[2].device = f.d0;  // keep ind on its own device
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kIncompatibleBinding));
}

TEST(Certify, DetectsDependencyViolationSameDevice) {
  Fixture f;
  f.result.layers[0].items[1].start = 5_min;  // b starts before a ends
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kDependencyStart));
}

TEST(Certify, ChargesTransportAcrossDevices) {
  Fixture f;
  // Move b to d1 starting right at a's end: misses the 2m transport.
  f.result.layers[0].items[1].device = f.d1;
  f.result.layers[0].items[1].start = 10_min;
  f.result.layers[0].items[2].device = f.d0;  // keep ind separate
  f.result.layers[0].items[2].start = 10_min;
  EXPECT_TRUE(has_code(certify_result(f.result, f.assay, f.transport),
                       diag::codes::kDependencyStart));
  // With the transport honored it passes.
  f.result.layers[0].items[1].start = 12_min;
  f.result.layers[0].items[2].start = 12_min;
  EXPECT_TRUE(certify_result(f.result, f.assay, f.transport).empty());
}

TEST(Certify, DetectsDeviceConflict) {
  Fixture f;
  f.result.layers[0].items[1].start = 9_min;  // overlaps a on d0 AND precedes parent end
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kDeviceOverlap));
}

TEST(Certify, TransportSlotOccupiesDevice) {
  Fixture f;
  // b moves to d1 (a must hold d0 during the 2m outgoing transport);
  // squeeze the indeterminate op onto d0 during that window.
  f.result.layers[0].items[1].device = f.d1;
  f.result.layers[0].items[1].start = 12_min;
  f.result.layers[0].items[2].device = f.d0;
  f.result.layers[0].items[2].start = 10_min;  // inside a's transport slot? a ends 10, transport until 12
  // ind on d0 at [10,18) overlaps a's occupation [0,12) -> conflict.
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kDeviceOverlap));
}

TEST(Certify, DetectsLateStartAfterIndeterminateEnd) {
  Fixture f;
  // b starts after ind's minimum completion (constraint 14).
  f.result.layers[0].items[1].start = 30_min;
  const auto diagnostics = certify_result(f.result, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kStartAfterIndeterminate));
}

TEST(Certify, DetectsParentInLaterLayer) {
  Fixture f;
  // Split: child b into layer 0, parent a into layer 1.
  SynthesisResult split;
  split.devices = f.result.devices;
  split.layers.push_back({LayerId{0},
                          {{f.b, f.d0, 0_min, 5_min, 0_min},
                           {f.ind, f.d1, 0_min, 8_min, 0_min}}});
  split.layers.push_back({LayerId{1}, {{f.a, f.d0, 0_min, 10_min, 0_min}}});
  const auto diagnostics = certify_result(split, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kParentLayerOrder));
}

TEST(Certify, CrossLayerChildWaitsForTransport) {
  Fixture f;
  SynthesisResult split;
  split.devices = f.result.devices;
  split.layers.push_back({LayerId{0},
                          {{f.a, f.d0, 0_min, 10_min, 0_min},
                           {f.ind, f.d1, 0_min, 8_min, 0_min}}});
  // b inherits a's output onto a different device but starts at 0.
  split.layers.push_back({LayerId{1}, {{f.b, f.d1, 0_min, 5_min, 0_min}}});
  const auto diagnostics = certify_result(split, f.assay, f.transport);
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kTransportStart));
  // Waiting out the transport fixes it.
  split.layers[1].items[0].start = 2_min;
  EXPECT_TRUE(certify_result(split, f.assay, f.transport).empty());
}

TEST(Certify, IndeterminateOpsMustNotShareDevices) {
  model::Assay assay{"t"};
  model::OperationSpec s;
  s.name = "i1";
  s.duration = 5_min;
  s.indeterminate = true;
  const auto i1 = assay.add_operation(s);
  s.name = "i2";
  const auto i2 = assay.add_operation(s);
  SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const auto d = result.devices.instantiate(
      {ContainerKind::Chamber, Capacity::Tiny, {}}, LayerId{0});
  result.layers.push_back({LayerId{0},
                           {{i1, d, 0_min, 5_min, 0_min},
                            {i2, d, 5_min, 5_min, 0_min}}});
  const auto diagnostics = certify_result(result, assay, TransportPlan{1_min});
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kIndeterminateSharedDevice));
}

TEST(Certify, IndeterminateWithSameLayerChildIsFlagged) {
  model::Assay assay{"t"};
  model::OperationSpec s;
  s.name = "i";
  s.duration = 5_min;
  s.indeterminate = true;
  const auto i = assay.add_operation(s);
  model::OperationSpec c;
  c.name = "c";
  c.duration = 5_min;
  c.parents = {i};
  const auto child = assay.add_operation(c);
  SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const auto d0 = result.devices.instantiate(
      {ContainerKind::Chamber, Capacity::Tiny, {}}, LayerId{0});
  const auto d1 = result.devices.instantiate(
      {ContainerKind::Chamber, Capacity::Tiny, {}}, LayerId{0});
  result.layers.push_back({LayerId{0},
                           {{i, d0, 0_min, 5_min, 0_min},
                            {child, d1, 5_min + 1_min, 5_min, 0_min}}});
  const auto diagnostics = certify_result(result, assay, TransportPlan{1_min});
  EXPECT_TRUE(has_code(diagnostics, diag::codes::kIndeterminateSameLayerChild));
}

TEST(Certify, SummaryLinesStartWithTheStableCode) {
  Fixture f;
  f.result.layers[0].items.pop_back();
  const auto violations = certify_result(f.result, f.assay, f.transport);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(diag::summary_line(violations[0]).rfind(diag::codes::kMissingOperation, 0), 0u);
}

}  // namespace
}  // namespace cohls::schedule
