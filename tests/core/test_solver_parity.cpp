// End-to-end parity of the sequential and the parallel exact search through
// the full synthesis flow: the ablation-D random-assay setup (small
// single-layer assays the exact engine can close) must produce the same
// final objective with one branch-and-bound worker or four.
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
  // Node budget instead of wall clock so both configurations are
  // deterministic regardless of machine load.
  options.engine.milp.time_limit_seconds = 0.0;
  options.engine.milp.max_nodes = 20000;
  options.max_resynthesis_iterations = 1;
  options.observer = observer;
  return options;
}

TEST(SolverParity, SequentialAndParallelAgreeOnAblationDAssays) {
  assays::RandomAssayOptions gen;
  gen.operations = 4;
  gen.indeterminate_probability = 0.0;
  gen.max_parents = 2;

  int ilp_layers = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const model::Assay assay = assays::random_assay(seed * 101, gen);

    CountingObserver sequential_stats;
    const SynthesisReport sequential =
        synthesize(assay, ablation_d_options(&sequential_stats));

    CountingObserver parallel_stats;
    SynthesisOptions parallel_options = ablation_d_options(&parallel_stats);
    parallel_options.engine.milp.threads = 4;
    const SynthesisReport parallel = synthesize(assay, parallel_options);

    const auto sequential_violations =
        schedule::certify_result(sequential.result, assay, sequential.transport);
    ASSERT_TRUE(sequential_violations.empty())
        << "seed " << seed << ": " << diag::summary_line(sequential_violations.front());
    const auto parallel_violations =
        schedule::certify_result(parallel.result, assay, parallel.transport);
    ASSERT_TRUE(parallel_violations.empty())
        << "seed " << seed << ": " << diag::summary_line(parallel_violations.front());

    // A 4-worker exact search must land on the same final objective as the
    // sequential one (incumbent vectors may differ at equal objective).
    EXPECT_NEAR(parallel.iterations.back().objective.weighted_total,
                sequential.iterations.back().objective.weighted_total, 1e-6)
        << "seed " << seed;

    // The MILP has to run on these layers: pivots accumulate even when the
    // heuristic candidate ends up winning the layer.
    EXPECT_GT(sequential_stats.pivots, 0) << "seed " << seed;
    EXPECT_GT(parallel_stats.pivots, 0) << "seed " << seed;
    ilp_layers += sequential_stats.ilp_layers;
  }
  // Across the seed set the exact candidate must win some layers —
  // otherwise the parity above would be vacuous.
  EXPECT_GT(ilp_layers, 0);
}

}  // namespace
}  // namespace cohls::core
