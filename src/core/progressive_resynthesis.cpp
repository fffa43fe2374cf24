#include "core/progressive_resynthesis.hpp"

#include <algorithm>

#include "core/transport_estimator.hpp"

namespace cohls::core {

namespace {

/// The record of a pass whose path count run_pass reported.
IterationRecord record_of(const schedule::SynthesisResult& result,
                          const model::Assay& assay, const model::CostModel& costs,
                          int path_count) {
  IterationRecord record;
  record.execution_time = result.total_time(assay);
  record.objective = schedule::evaluate_objective(result, assay, costs,
                                                  record.execution_time, path_count);
  record.device_count = result.used_device_count();
  record.path_count = path_count;
  return record;
}

std::vector<KnownDevice> known_devices_of(const schedule::SynthesisResult& result) {
  std::vector<KnownDevice> known;
  for (const model::Device& device : result.devices.devices()) {
    known.push_back(KnownDevice{device.config,
                                device.created_in.valid() ? device.created_in.value() : 0});
  }
  return known;
}

}  // namespace

namespace {

SynthesisReport synthesize_single(const model::Assay& assay,
                                  const SynthesisOptions& options,
                                  const PassPolicy& policy) {
  SynthesisReport report;
  report.plan = layer_assay(assay, options.layering);

  report.transport = schedule::TransportPlan(options.initial_transport);
  int path_count = 0;
  report.result =
      run_pass(assay, report.plan, report.transport, options, {}, policy, &path_count);
  report.iterations.push_back(record_of(report.result, assay, options.costs, path_count));
  double best_objective = report.iterations.back().objective.weighted_total;

  // The latest pass is the best one (report.result) or, when it did not
  // improve on it, `latest`; passes move into place and are never copied.
  schedule::SynthesisResult latest;
  bool latest_is_best = true;
  for (int iteration = 1; iteration <= options.max_resynthesis_iterations; ++iteration) {
    options.cancel.check("progressive re-synthesis");
    const schedule::SynthesisResult& current = latest_is_best ? report.result : latest;
    schedule::TransportPlan refined =
        options.transport_refinement == TransportRefinement::Layout
            ? layout::transport_from_layout(
                  layout::place_devices(current, assay, options.placement), current,
                  assay, options.layout_transport)
            : refine_transport(current, assay, options.progression,
                               options.initial_transport);
    const std::vector<KnownDevice> known = known_devices_of(current);
    schedule::SynthesisResult next =
        run_pass(assay, report.plan, refined, options, known, policy, &path_count);
    const IterationRecord record = record_of(next, assay, options.costs, path_count);
    report.iterations.push_back(record);

    const double previous = report.iterations[report.iterations.size() - 2]
                                .objective.weighted_total;
    const double improvement =
        previous > 0.0 ? (previous - record.objective.weighted_total) / previous : 0.0;

    // Ties favour earlier iterations.
    latest_is_best = record.objective.weighted_total < best_objective - 1e-9;
    if (latest_is_best) {
      best_objective = record.objective.weighted_total;
      report.kept_iteration = report.iterations.size() - 1;
      report.result = std::move(next);
      report.transport = std::move(refined);
    } else {
      latest = std::move(next);
    }

    if (improvement <= options.resynthesis_improvement_threshold) {
      break;  // "no further significant improvement"
    }
  }
  return report;
}

}  // namespace

SynthesisReport synthesize(const model::Assay& assay, const SynthesisOptions& options,
                           const PassPolicy& policy) {
  COHLS_EXPECT(options.restarts >= 1, "need at least one synthesis run");
  SynthesisReport best = synthesize_single(assay, options, policy);
  if (options.restarts == 1) {
    return best;
  }
  double best_objective = best.kept().objective.weighted_total;
  for (int restart = 1; restart < options.restarts; ++restart) {
    options.cancel.check("synthesis restart");
    SynthesisOptions varied = options;
    // Different tie-break seeds reshuffle the layering's random choice of
    // eligible indeterminate operations (Algorithm 1 L13).
    varied.layering.seed = options.layering.seed + static_cast<std::uint64_t>(restart);
    SynthesisReport candidate = synthesize_single(assay, varied, policy);
    const double objective = candidate.kept().objective.weighted_total;
    if (objective < best_objective - 1e-9) {
      best_objective = objective;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace cohls::core
