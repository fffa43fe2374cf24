#include "core/transport_estimator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/flow_reference.hpp"

namespace cohls::core {
namespace {

struct Fixture {
  model::Assay assay{"t"};
  schedule::SynthesisResult result;
  OperationId a, b, c, d;
  DeviceId d0, d1, d2;

  Fixture() {
    const auto add = [this](const std::string& name, std::vector<OperationId> parents) {
      model::OperationSpec spec;
      spec.name = name;
      spec.duration = 10_min;
      spec.parents = std::move(parents);
      return assay.add_operation(spec);
    };
    a = add("a", {});
    b = add("b", {a});
    c = add("c", {a});
    d = add("d", {b, c});

    result.devices = model::DeviceInventory(4);
    const model::DeviceConfig cfg{model::ContainerKind::Chamber, model::Capacity::Tiny, {}};
    d0 = result.devices.instantiate(cfg, LayerId{0});
    d1 = result.devices.instantiate(cfg, LayerId{0});
    d2 = result.devices.instantiate(cfg, LayerId{0});
    // a,b on d0; c on d1; d on d1. Paths: (d0,d1) used by a->c and b->d = 2
    // transfers; no other path.
    result.layers.push_back({LayerId{0},
                             {{a, d0, 0_min, 10_min, 0_min},
                              {b, d0, 10_min, 10_min, 0_min},
                              {c, d1, 13_min, 10_min, 0_min},
                              {d, d1, 23_min, 10_min, 0_min}}});
  }
};

/// The plan's time on the edge parent -> child of the fixture's assay.
Minutes edge_time(const schedule::TransportPlan& plan, const Fixture& f, OperationId parent,
                  OperationId child) {
  return oracles::edge_time_between(plan, f.assay, parent, child);
}

TEST(TransportEstimator, SameDeviceEdgesBecomeZero) {
  const Fixture f;
  const schedule::TransportProgression progression{1_min, 4_min, 4};
  const auto plan = refine_transport(f.result, f.assay, progression, 3_min);
  EXPECT_EQ(edge_time(plan, f, f.a, f.b), 0_min);  // a,b co-located
  EXPECT_EQ(edge_time(plan, f, f.c, f.d), 0_min);  // c,d co-located
}

TEST(TransportEstimator, BusiestPathGetsShortestTerm) {
  const Fixture f;
  const schedule::TransportProgression progression{1_min, 4_min, 4};
  const auto plan = refine_transport(f.result, f.assay, progression, 3_min);
  // The only inter-device path is (d0,d1) (rank 0 of 1) -> minimum term.
  EXPECT_EQ(edge_time(plan, f, f.a, f.c), 1_min);
  EXPECT_EQ(edge_time(plan, f, f.b, f.d), 1_min);
}

TEST(TransportEstimator, RanksMultiplePathsByUsage) {
  Fixture f;
  // Rebind: a on d0; b,d on d1; c on d2.
  // Edges: a->b (d0,d1), a->c (d0,d2), b->d same device 0, c->d (d2,d1).
  // Path usage: each path used once -> ranks spread across terms.
  f.result.layers[0].items[1].device = f.d1;                      // b
  f.result.layers[0].items[2].device = f.d2;                      // c
  f.result.layers[0].items[3].device = f.d1;                      // d
  const schedule::TransportProgression progression{1_min, 3_min, 3};
  const auto plan = refine_transport(f.result, f.assay, progression, 3_min);
  EXPECT_EQ(edge_time(plan, f, f.b, f.d), 0_min);  // co-located
  // Three used paths, three terms: each path gets a distinct term 1m/2m/3m.
  std::multiset<std::int64_t> terms{edge_time(plan, f, f.a, f.b).count(),
                                    edge_time(plan, f, f.a, f.c).count(),
                                    edge_time(plan, f, f.c, f.d).count()};
  EXPECT_EQ(terms, (std::multiset<std::int64_t>{1, 2, 3}));
}

TEST(TransportEstimator, UnboundEdgesKeepFallback) {
  Fixture f;
  // Drop operation d from the result: edges into d stay at the fallback.
  f.result.layers[0].items.pop_back();
  const schedule::TransportProgression progression{1_min, 4_min, 4};
  const auto plan = refine_transport(f.result, f.assay, progression, 3_min);
  EXPECT_EQ(edge_time(plan, f, f.b, f.d), 3_min);
}

TEST(TransportEstimator, NoInterDevicePathsMeansAllZeroOrFallback) {
  Fixture f;
  for (auto& item : f.result.layers[0].items) {
    item.device = f.d0;
  }
  const schedule::TransportProgression progression{1_min, 4_min, 4};
  const auto plan = refine_transport(f.result, f.assay, progression, 3_min);
  EXPECT_EQ(edge_time(plan, f, f.a, f.b), 0_min);
  EXPECT_EQ(edge_time(plan, f, f.a, f.c), 0_min);
  EXPECT_EQ(edge_time(plan, f, f.b, f.d), 0_min);
  EXPECT_EQ(edge_time(plan, f, f.c, f.d), 0_min);
}

}  // namespace
}  // namespace cohls::core
