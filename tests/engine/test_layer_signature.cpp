// The canonical layer signature must (a) coincide for contexts that are
// equal up to monotone relabeling of operation / device ids — that is what
// makes replicated pipelines and re-submitted assays hit the cache — and
// (b) differ whenever anything the layer solver reads differs.
#include "engine/layer_signature.hpp"

#include <gtest/gtest.h>

#include "model/assay.hpp"

namespace cohls::engine {
namespace {

model::OperationSpec op_spec(std::string name, long duration,
                             std::vector<OperationId> parents = {}) {
  model::OperationSpec spec;
  spec.name = std::move(name);
  spec.container = model::ContainerKind::Chamber;
  spec.capacity = model::Capacity::Tiny;
  spec.duration = Minutes{duration};
  spec.parents = std::move(parents);
  return spec;
}

/// Owns everything a LayerSolveContext references.
struct Fixture {
  model::Assay assay{"sig-test"};
  schedule::TransportPlan transport{Minutes{5}};
  model::CostModel costs{};
  core::EngineOptions engine{};
  model::DeviceInventory inventory{10};
  schedule::LayerRequest request;

  [[nodiscard]] core::LayerSolveContext context() const {
    return {request, assay, transport, costs, engine, inventory};
  }
};

/// Two structurally identical 3-op pipelines: ops {0,1,2} and {3,4,5}.
Fixture replicated_fixture() {
  Fixture f;
  for (int pipeline = 0; pipeline < 2; ++pipeline) {
    const OperationId a = f.assay.add_operation(op_spec("capture", 10));
    const OperationId b = f.assay.add_operation(op_spec("react", 20, {a}));
    f.assay.add_operation(op_spec("detect", 5, {b}));
  }
  return f;
}

TEST(LayerSignature, ReplicatedPipelinesShareOneSignature) {
  const Fixture f = replicated_fixture();
  schedule::LayerRequest first = f.request;
  first.ops = {OperationId{0}, OperationId{1}, OperationId{2}};
  schedule::LayerRequest second = f.request;
  second.ops = {OperationId{3}, OperationId{4}, OperationId{5}};

  const core::LayerSolveContext context_a{first, f.assay, f.transport,
                                          f.costs, f.engine, f.inventory};
  const core::LayerSolveContext context_b{second, f.assay, f.transport,
                                          f.costs, f.engine, f.inventory};
  const LayerSignature sig_a = layer_signature(context_a);
  const LayerSignature sig_b = layer_signature(context_b);
  EXPECT_EQ(sig_a.text, sig_b.text);
  EXPECT_EQ(sig_a.hash, sig_b.hash);
}

TEST(LayerSignature, LayerIdDoesNotAffectTheSignature) {
  const Fixture f = replicated_fixture();
  schedule::LayerRequest first = f.request;
  first.layer = LayerId{0};
  first.ops = {OperationId{0}, OperationId{1}, OperationId{2}};
  schedule::LayerRequest second = first;
  second.layer = LayerId{4};

  const core::LayerSolveContext context_a{first, f.assay, f.transport,
                                          f.costs, f.engine, f.inventory};
  const core::LayerSolveContext context_b{second, f.assay, f.transport,
                                          f.costs, f.engine, f.inventory};
  EXPECT_EQ(layer_signature(context_a).text, layer_signature(context_b).text);
}

TEST(LayerSignature, OperationDurationChangesTheSignature) {
  Fixture f;
  f.assay.add_operation(op_spec("only", 10));
  f.request.ops = {OperationId{0}};
  const LayerSignature before = layer_signature(f.context());

  Fixture g;
  g.assay.add_operation(op_spec("only", 11));
  g.request.ops = {OperationId{0}};
  EXPECT_NE(before.text, layer_signature(g.context()).text);
}

TEST(LayerSignature, DescendantConeAttributesChangeTheSignature) {
  // The layer contains only op 0, but the scheduler's pipeline lookahead
  // reads descendants — so a difference in a child outside the layer must
  // change the key.
  Fixture f;
  const OperationId root_f = f.assay.add_operation(op_spec("root", 10));
  f.assay.add_operation(op_spec("child", 20, {root_f}));
  f.request.ops = {root_f};

  Fixture g;
  const OperationId root_g = g.assay.add_operation(op_spec("root", 10));
  g.assay.add_operation(op_spec("child", 21, {root_g}));
  g.request.ops = {root_g};

  EXPECT_NE(layer_signature(f.context()).text, layer_signature(g.context()).text);
}

TEST(LayerSignature, InheritedInventoryChangesTheSignature) {
  Fixture f;
  f.assay.add_operation(op_spec("only", 10));
  f.request.ops = {OperationId{0}};
  const LayerSignature empty_inventory = layer_signature(f.context());

  const DeviceId device = f.inventory.instantiate(model::DeviceConfig{}, LayerId{0});
  f.request.usable_devices = {device};
  EXPECT_NE(empty_inventory.text, layer_signature(f.context()).text);
}

TEST(LayerSignature, PriorBindingChangesTheSignature) {
  // One op whose parent lives in an earlier layer: whether (and where) that
  // parent was bound feeds the scheduler's transport arithmetic.
  Fixture f;
  const OperationId parent = f.assay.add_operation(op_spec("early", 10));
  const OperationId child = f.assay.add_operation(op_spec("late", 20, {parent}));
  const DeviceId device = f.inventory.instantiate(model::DeviceConfig{}, LayerId{0});
  f.request.ops = {child};
  f.request.usable_devices = {device};
  const LayerSignature unbound = layer_signature(f.context());

  f.request.prior_binding[parent] = device;
  EXPECT_NE(unbound.text, layer_signature(f.context()).text);
}

TEST(LayerSignature, HintOrderIsPartOfTheSignature) {
  Fixture f;
  f.assay.add_operation(op_spec("only", 10));
  f.request.ops = {OperationId{0}};
  model::DeviceConfig ring;
  ring.container = model::ContainerKind::Ring;
  ring.capacity = model::Capacity::Small;
  const model::DeviceConfig chamber{};

  f.request.hints = {{ring, 0}, {chamber, 1}};
  const LayerSignature forward = layer_signature(f.context());
  f.request.hints = {{chamber, 0}, {ring, 1}};
  EXPECT_NE(forward.text, layer_signature(f.context()).text);
}

TEST(LayerSignature, HintKeysAreNotPartOfTheSignature) {
  Fixture f;
  f.assay.add_operation(op_spec("only", 10));
  f.request.ops = {OperationId{0}};
  f.request.hints = {{model::DeviceConfig{}, 7}};
  const LayerSignature first = layer_signature(f.context());
  f.request.hints = {{model::DeviceConfig{}, 99}};
  // Keys are caller bookkeeping, re-mapped on decode; the key text is equal.
  EXPECT_EQ(first.text, layer_signature(f.context()).text);
}

TEST(LayerSignature, EngineBudgetChangesTheSignature) {
  // Every engine field the layer solver reads, changed one at a time, must
  // change the signature: two jobs sharing one cache may differ in any one.
  struct Change {
    const char* field;
    void (*apply)(core::EngineOptions&);
  };
  const Change changes[] = {
      {"enable_ilp", [](core::EngineOptions& e) { e.enable_ilp = !e.enable_ilp; }},
      {"ilp_max_ops", [](core::EngineOptions& e) { e.ilp_max_ops += 1; }},
      {"ilp_max_devices", [](core::EngineOptions& e) { e.ilp_max_devices += 1; }},
      {"ilp_new_slots", [](core::EngineOptions& e) { e.ilp_new_slots += 1; }},
      {"milp.max_nodes", [](core::EngineOptions& e) { e.milp.max_nodes += 1; }},
      {"milp.max_pivots", [](core::EngineOptions& e) { e.milp.max_pivots += 1; }},
      {"milp.enable_rounding_heuristic",
       [](core::EngineOptions& e) {
         e.milp.enable_rounding_heuristic = !e.milp.enable_rounding_heuristic;
       }},
  };
  for (const Change& change : changes) {
    Fixture f;
    f.assay.add_operation(op_spec("only", 10));
    f.request.ops = {OperationId{0}};
    const LayerSignature before = layer_signature(f.context());
    change.apply(f.engine);
    EXPECT_NE(before.text, layer_signature(f.context()).text) << change.field;
  }
}

TEST(LayerSignature, CacheableRejectsCustomPoliciesAndWarmStarts) {
  Fixture f;
  f.assay.add_operation(op_spec("only", 10));
  f.request.ops = {OperationId{0}};
  EXPECT_TRUE(cacheable(f.context()));

  schedule::LayerRequest with_binds = f.request;
  with_binds.binds = [](const model::Operation&, const model::DeviceConfig&) {
    return true;
  };
  const core::LayerSolveContext custom{with_binds, f.assay, f.transport,
                                       f.costs, f.engine, f.inventory};
  EXPECT_FALSE(cacheable(custom));

  Fixture warm = replicated_fixture();
  warm.request.ops = {OperationId{0}};
  warm.engine.milp.warm_start = std::vector<double>{1.0};
  EXPECT_FALSE(cacheable(warm.context()));

  // A wall-limited MILP returns whatever the host's load let it reach.
  Fixture timed = replicated_fixture();
  timed.request.ops = {OperationId{0}};
  timed.engine.milp.time_limit_seconds = 2.0;
  EXPECT_FALSE(cacheable(timed.context()));
}

TEST(Fnv1a, IsDeterministicAndDiscriminates) {
  EXPECT_EQ(fnv1a("layer"), fnv1a("layer"));
  EXPECT_NE(fnv1a("layer"), fnv1a("layes"));
  // Published FNV-1a reference value for the empty string.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ULL);
}

}  // namespace
}  // namespace cohls::engine
