// The exact search through the full synthesis flow: on the ablation-D
// random-assay setup (small single-layer assays the exact engine can close)
// every result certifies, the layer MILPs do real LP work, and the exact
// candidate wins some layers.
#include <gtest/gtest.h>

#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "schedule/validate.hpp"

namespace cohls::core {
namespace {

/// Accumulates the LP counters run_pass reports per layer solve.
class CountingObserver final : public SolveObserver {
 public:
  void on_layer_solve(const LayerSolveEvent& event) override {
    if (event.used_ilp) {
      ++ilp_layers;
    }
    pivots += event.lp_pivots;
  }

  int ilp_layers = 0;
  long pivots = 0;
};

SynthesisOptions ablation_d_options(SolveObserver* observer) {
  SynthesisOptions options;
  options.max_devices = 4;
  options.engine.enable_ilp = true;
  options.engine.ilp_max_ops = 6;
  options.engine.ilp_max_devices = 6;
  options.engine.ilp_new_slots = 2;
  // Node budget instead of wall clock so the search is deterministic
  // regardless of machine load.
  options.engine.milp.time_limit_seconds = 0.0;
  options.engine.milp.max_nodes = 20000;
  options.max_resynthesis_iterations = 1;
  options.observer = observer;
  return options;
}

TEST(ExactLayers, RunAndCertifyOnAblationDAssays) {
  assays::RandomAssayOptions gen;
  gen.operations = 4;
  gen.indeterminate_probability = 0.0;
  gen.max_parents = 2;

  int ilp_layers = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const model::Assay assay = assays::random_assay(seed * 101, gen);

    CountingObserver stats;
    const SynthesisReport report = synthesize(assay, ablation_d_options(&stats));

    const auto violations = schedule::certify_result(report.result, assay, report.transport);
    ASSERT_TRUE(violations.empty())
        << "seed " << seed << ": " << diag::summary_line(violations.front());

    // The MILP has to run on these layers: pivots accumulate even when the
    // heuristic candidate ends up winning the layer.
    EXPECT_GT(stats.pivots, 0) << "seed " << seed;
    ilp_layers += stats.ilp_layers;
  }
  // Across the seed set the exact candidate must win some layers —
  // otherwise the exact path would be vacuous here.
  EXPECT_GT(ilp_layers, 0);
}

}  // namespace
}  // namespace cohls::core
