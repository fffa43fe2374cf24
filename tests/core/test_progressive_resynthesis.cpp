#include "core/progressive_resynthesis.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "schedule/validate.hpp"

namespace cohls::core {
namespace {

TEST(ProgressiveResynthesis, RecordsInitialIteration) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  SynthesisOptions options;
  options.max_devices = 10;
  options.max_resynthesis_iterations = 0;
  const SynthesisReport report = synthesize(assay, options);
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_GT(report.iterations[0].objective.weighted_total, 0.0);
  EXPECT_EQ(report.iterations[0].device_count, report.result.used_device_count());
}

TEST(ProgressiveResynthesis, KeepsTheBestIterationEvenIfLaterOnesRegress) {
  const model::Assay assay = assays::gene_expression_assay(3);
  SynthesisOptions options;
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  options.resynthesis_improvement_threshold = -1.0;  // never stop early
  options.max_resynthesis_iterations = 3;
  const SynthesisReport report = synthesize(assay, options);
  double best = report.iterations.front().objective.weighted_total;
  for (const auto& it : report.iterations) {
    best = std::min(best, it.objective.weighted_total);
  }
  const auto final_objective =
      schedule::evaluate_objective(report.result, assay, options.costs);
  EXPECT_NEAR(final_objective.weighted_total, best, 1e-9);
}

TEST(ProgressiveResynthesis, KeptRecordDescribesTheResult) {
  // The kept record is the result's own (time, paths, devices, objective),
  // and it is the earliest iteration that no later one beats by more than
  // the 1e-9 tie margin.
  std::vector<model::Assay> assays{assays::kinase_activity_assay(2),
                                   assays::gene_expression_assay(3),
                                   assays::rt_qpcr_assay(3)};
  assays::RandomAssayOptions gen;
  gen.operations = 14;
  gen.indeterminate_probability = 0.25;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    assays.push_back(assays::random_assay(seed, gen));
  }
  for (const model::Assay& assay : assays) {
    SynthesisOptions options;
    options.max_devices = 20;
    options.layering.indeterminate_threshold = 2;
    options.resynthesis_improvement_threshold = -1.0;  // never stop early
    options.max_resynthesis_iterations = 3;
    options.engine.enable_ilp = false;
    for (const int restarts : {1, 3}) {
      options.restarts = restarts;
      const SynthesisReport report = synthesize(assay, options);
      const IterationRecord& kept = report.kept();
      const schedule::ObjectiveBreakdown objective =
          schedule::evaluate_objective(report.result, assay, options.costs);
      EXPECT_EQ(kept.objective.weighted_total, objective.weighted_total) << assay.name();
      EXPECT_EQ(kept.objective.path_count, objective.path_count) << assay.name();
      EXPECT_EQ(kept.path_count, report.result.path_count(assay)) << assay.name();
      EXPECT_EQ(kept.device_count, report.result.used_device_count()) << assay.name();
      EXPECT_TRUE(kept.execution_time == report.result.total_time(assay)) << assay.name();
      const double margin = 1e-9;
      for (std::size_t k = 0; k < report.iterations.size(); ++k) {
        const double total = report.iterations[k].objective.weighted_total;
        if (k < report.kept_iteration) {
          EXPECT_GT(total, kept.objective.weighted_total + margin) << assay.name();
        } else {
          EXPECT_GE(total, kept.objective.weighted_total - margin) << assay.name();
        }
      }
    }
  }
}

TEST(ProgressiveResynthesis, StopsWhenImprovementBelowThreshold) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  SynthesisOptions options;
  options.max_devices = 10;
  options.resynthesis_improvement_threshold = 1.0;  // 100%: stop after one
  options.max_resynthesis_iterations = 5;
  const SynthesisReport report = synthesize(assay, options);
  EXPECT_EQ(report.iterations.size(), 2u);  // initial + one re-synthesis
}

TEST(ProgressiveResynthesis, ResultValidatesUnderReportedTransport) {
  const model::Assay assay = assays::gene_expression_assay(4);
  SynthesisOptions options;
  options.max_devices = 15;
  options.layering.indeterminate_threshold = 4;
  const SynthesisReport report = synthesize(assay, options);
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

TEST(ProgressiveResynthesis, PlanMatchesResultLayers) {
  const model::Assay assay = assays::rt_qpcr_assay(4);
  SynthesisOptions options;
  options.max_devices = 15;
  options.layering.indeterminate_threshold = 2;
  const SynthesisReport report = synthesize(assay, options);
  ASSERT_EQ(static_cast<int>(report.result.layers.size()), report.plan.layer_count());
  for (int li = 0; li < report.plan.layer_count(); ++li) {
    EXPECT_EQ(report.result.layers[static_cast<std::size_t>(li)].items.size(),
              report.plan.layer(li).size());
  }
}

TEST(ProgressiveResynthesis, MultiStartNeverWorsensTheObjective) {
  assays::RandomAssayOptions gen;
  gen.operations = 20;
  gen.indeterminate_probability = 0.25;
  const model::Assay assay = assays::random_assay(4242, gen);
  SynthesisOptions single;
  single.max_devices = 10;
  single.layering.indeterminate_threshold = 3;
  single.engine.enable_ilp = false;
  SynthesisOptions multi = single;
  multi.restarts = 4;
  const auto one = synthesize(assay, single);
  const auto four = synthesize(assay, multi);
  const double one_obj =
      schedule::evaluate_objective(one.result, assay, single.costs).weighted_total;
  const double four_obj =
      schedule::evaluate_objective(four.result, assay, multi.costs).weighted_total;
  EXPECT_LE(four_obj, one_obj + 1e-9);
  const auto violations =
      schedule::certify_result(four.result, assay, four.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

TEST(ProgressiveResynthesis, RejectsZeroRestarts) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  SynthesisOptions options;
  options.restarts = 0;
  EXPECT_THROW((void)synthesize(assay, options), PreconditionError);
}

// Property: the full flow produces validating results on random assays
// across seeds, thresholds and inventory sizes.
class FullFlowProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FullFlowProperty, EndToEndResultAlwaysValidates) {
  const auto [seed, threshold, max_devices] = GetParam();
  assays::RandomAssayOptions gen;
  gen.operations = 24;
  gen.indeterminate_probability = 0.2;
  const model::Assay assay =
      assays::random_assay(static_cast<std::uint64_t>(seed) * 131 + 7, gen);
  SynthesisOptions options;
  options.max_devices = max_devices;
  options.layering.indeterminate_threshold = threshold;
  options.layering.seed = static_cast<std::uint64_t>(seed);
  // Keep the property sweep fast; exactness is covered by the dedicated
  // ILP suites. A work budget, so the sweep is the same on any host.
  options.engine.milp.max_pivots = 300;
  options.engine.milp.max_nodes = 2000;
  try {
    const SynthesisReport report = synthesize(assay, options);
    const auto violations =
        schedule::certify_result(report.result, assay, report.transport);
    EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
    const auto layering_violations =
        validate_layering(report.plan, assay, threshold);
    EXPECT_TRUE(layering_violations.empty()) << layering_violations.front();
  } catch (const InfeasibleError&) {
    // Tight inventories can be genuinely infeasible (many parallel
    // indeterminate ops); rejecting with a typed error is correct behavior.
    SUCCEED();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullFlowProperty,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(2, 4),
                                            ::testing::Values(8, 16)));

}  // namespace
}  // namespace cohls::core
