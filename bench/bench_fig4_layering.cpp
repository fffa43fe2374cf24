// Reproduces Figure 4: the dependency-based allocation phase of the
// layering algorithm (modified maximum-independent-set walk). We build a
// DAG in the figure's spirit — indeterminate operations interleaved with
// determinate ones — and print each selection step: the chosen
// indeterminate operation (no indeterminate ancestor left in the graph) and
// the descendants evicted to later layers, then the final layer partition.
#include <iostream>

#include "core/layering.hpp"
#include "schedule/validate.hpp"

using namespace cohls;

namespace {

model::Assay figure4_assay() {
  model::Assay assay("figure 4 example");
  const auto add = [&assay](const std::string& name, bool indeterminate,
                            std::vector<OperationId> parents) {
    model::OperationSpec spec;
    spec.name = name;
    spec.duration = 10_min;
    spec.indeterminate = indeterminate;
    spec.parents = std::move(parents);
    return assay.add_operation(spec);
  };
  // A small two-generation web: o_a and o_b are indeterminate roots of
  // their cones; o_e is indeterminate but descends from o_a, so it cannot
  // share a layer with it.
  const auto o0 = add("o0", false, {});
  const auto oa = add("o_a (ind)", true, {o0});
  const auto o2 = add("o2", false, {o0});
  const auto ob = add("o_b (ind)", true, {o2});
  const auto o4 = add("o4", false, {oa});
  const auto oe = add("o_e (ind)", true, {o4});
  const auto o6 = add("o6", false, {ob, oe});
  (void)o6;
  return assay;
}

}  // namespace

int main() {
  std::cout << "=== Figure 4: dependency-based allocation walk ===\n\n";
  const model::Assay assay = figure4_assay();

  std::cout << "operations (ind = indeterminate):\n";
  for (const auto& op : assay.operations()) {
    std::cout << "  " << op.id() << ": " << op.name() << "  parents:";
    for (const auto p : op.parents()) {
      std::cout << ' ' << p;
    }
    std::cout << '\n';
  }

  // Narrate the MIS walk manually, mirroring Algorithm 1 L12-L24. Ids are
  // topological (parents first), so forward sweeps over the parent lists
  // find ancestors and descendants.
  std::cout << "\nwalk (layer 1):\n";
  const auto n = static_cast<std::size_t>(assay.operation_count());
  std::vector<char> active(n, 1);
  std::vector<char> marked(n, 0);
  while (true) {
    // marked[o]: o has an indeterminate ancestor in the graph.
    OperationId pick;
    for (const auto& op : assay.operations()) {
      bool blocked = false;
      for (const auto p : op.parents()) {
        blocked = blocked || marked[p.index()] ||
                  (active[p.index()] && assay.operation(p).indeterminate());
      }
      marked[op.id().index()] = blocked;
      if (!pick.valid() && active[op.id().index()] && op.indeterminate() && !blocked) {
        pick = op.id();
      }
    }
    if (!pick.valid()) {
      break;
    }
    std::cout << "  choose " << assay.operation(pick).name()
              << " (no indeterminate ancestor remains); evict descendants:";
    active[pick.index()] = 0;
    // marked[o]: o descends from the pick.
    marked.assign(n, 0);
    marked[pick.index()] = 1;
    for (std::size_t i = pick.index() + 1; i < n; ++i) {
      const auto& op = assay.operations()[i];
      for (const auto p : op.parents()) {
        marked[i] = marked[i] || marked[p.index()];
      }
      if (marked[i] && active[i]) {
        std::cout << ' ' << op.name();
        active[i] = 0;
      }
    }
    std::cout << '\n';
  }

  core::LayeringOptions options;
  options.indeterminate_threshold = 10;
  const core::LayerPlan plan = core::layer_assay(assay, options);
  std::cout << "\nresulting plan (" << plan.layer_count() << " layers):\n";
  for (int li = 0; li < plan.layer_count(); ++li) {
    std::cout << "  layer " << li + 1 << ":";
    for (const auto op : plan.layer(li)) {
      std::cout << "  " << assay.operation(op).name();
    }
    std::cout << '\n';
  }
  const auto violations = core::validate_layering(plan, assay, 10);
  std::cout << "\nplan valid: " << (violations.empty() ? "yes" : "NO") << '\n';
  return violations.empty() ? 0 : 1;
}
