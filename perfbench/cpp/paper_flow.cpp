// Workload `paper-flow`: the paper's own Table-2 workload.
//
// Why: the three protocols of Sec. 5 (examples/protocols/{kinase_activity,
// gene_expression,rt_qpcr}.assay: 16, 70 and 120 operations) go one at a
// time through the flow a user runs: parse -> lint -> core::synthesize
// (default SynthesisOptions, no layer cache) -> certify -> one replay.
// Algorithm-1 layering, the list-scheduling heuristic, progressive
// re-synthesis and the certifier do all the work.
//
// Bypasses: at the default EngineOptions gate no layer of these protocols
// reaches the exact MILP (ilp_layers = 0), so milp/ and lp/ do no work here
// and the prediction for any solver change is "no change on paper-flow".
// engine/ (no batch engine, no layer cache) and core recovery (no faults)
// are bypassed too; sim/ replays once per assay, under 1% of the time.
//
// Loop: closed, one client on one thread — the next assay starts when the
// previous one is certified and replayed. Inputs: every protocol paired with
// kVariants layering tie-break seeds and replay seeds drawn from --seed; the
// loop makes whole passes over these 3 x kVariants inputs, each pass in a
// seeded order and pinned to the next CPU, until the window closes.
// Unit of work: one assay, from its text to a certified, replayed schedule.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/linter.hpp"
#include "common.hpp"
#include "core/layering.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "io/assay_text.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cohls;

constexpr const char* kProtocols[] = {"kinase_activity", "gene_expression", "rt_qpcr"};
/// Layering tie-break variants per protocol. Eight keep the per-seed
/// objective and latency spread small while still varying the layering.
constexpr int kVariants = 8;
constexpr int kSetupRepetitions = 15;
constexpr std::uint64_t kStreamTag = 0x5041504552464C4FULL;  // "PAPERFLO"

struct Input {
  std::string protocol;
  std::string text;
  std::uint64_t layering_seed = 1;
  std::uint64_t replay_seed = 1;
  /// Weighted objective recorded by the set-up pass; every later synthesis
  /// of the same input must reproduce it.
  double objective = 0.0;
};

/// What one pass of the flow produced.
struct FlowOutcome {
  std::string error;
  double objective = 0.0;
  std::optional<model::Assay> assay;
  core::SynthesisReport report;
  std::uint64_t replay_events = 0;
  std::size_t diagnostics = 0;
};

/// The solve hook of the traced run: every layer solve becomes a child span
/// of core.synthesize, and the MILP/LP counters it reports are summed.
class SolveCounters final : public core::SolveObserver {
 public:
  explicit SolveCounters(Tracer& tracer) : tracer_(tracer) {}

  void on_layer_solve(const core::LayerSolveEvent& event) override {
    tracer_.record("core.layer_solve", event.seconds);
    ++solves_;
    solve_s_ += event.seconds;
    if (event.used_ilp) {
      ++ilp_;
    }
    if (event.used_ilp || event.milp_nodes > 0) {
      milp_s_ += event.seconds;
    } else if (!event.cache_hit) {
      heuristic_s_ += event.seconds;
    }
    nodes_ += event.milp_nodes;
    cutoff_prunes_ += event.milp_cutoff_prunes;
    bound_prunes_ += event.milp_bound_prunes;
    dive_lp_solves_ += event.milp_dive_lp_solves;
    pivots_ += event.lp_pivots;
    warm_ += event.lp_warm_solves;
    cold_ += event.lp_cold_solves;
    refactorizations_ += event.lp_refactorizations;
  }

  void publish(std::map<std::string, double>& layer, double items) const {
    layer["core.layer_solves"] = solves_ / items;
    layer["core.layer_solve_ms"] = solve_s_ * 1e3 / items;
    layer["core.layer_solves_ilp"] = ilp_ / items;
    layer["schedule.heuristic_ms"] = heuristic_s_ * 1e3 / items;
    layer["milp.solve_ms"] = milp_s_ * 1e3 / items;
    layer["milp.nodes"] = nodes_ / items;
    layer["milp.cutoff_prunes"] = cutoff_prunes_ / items;
    layer["milp.bound_prunes"] = bound_prunes_ / items;
    layer["milp.dive_lp_solves"] = dive_lp_solves_ / items;
    layer["lp.pivots"] = pivots_ / items;
    layer["lp.warm_solves"] = warm_ / items;
    layer["lp.cold_solves"] = cold_ / items;
    layer["lp.refactorizations"] = refactorizations_ / items;
    layer["lp.us_per_pivot"] = pivots_ > 0 ? milp_s_ * 1e6 / pivots_ : 0.0;
  }

 private:
  Tracer& tracer_;
  double solves_ = 0, solve_s_ = 0, ilp_ = 0, milp_s_ = 0, heuristic_s_ = 0;
  double nodes_ = 0, cutoff_prunes_ = 0, bound_prunes_ = 0, dive_lp_solves_ = 0;
  double pivots_ = 0, warm_ = 0, cold_ = 0, refactorizations_ = 0;
};

core::SynthesisOptions synthesis_options(const Input& input) {
  core::SynthesisOptions options;
  options.layering.seed = input.layering_seed;
  return options;
}

/// parse -> lint -> synthesize -> certify -> replay, with a span around
/// every public call (spans cost nothing when the tracer is off).
FlowOutcome run_flow(const Input& input, Tracer& tracer, core::SolveObserver* observer,
                     sim::Replayer& replayer) {
  FlowOutcome out;
  core::SynthesisOptions options = synthesis_options(input);
  options.observer = observer;
  {
    const auto span = tracer.span("io.parse");
    out.assay.emplace(io::assay_from_text(input.text));
  }
  const model::Assay& assay = *out.assay;
  analysis::LintReport lint;
  {
    const auto span = tracer.span("analysis.lint");
    lint = analysis::lint_assay_text(
        input.text, {options.max_devices, options.layering.indeterminate_threshold});
  }
  out.diagnostics = lint.diagnostics.size();
  if (lint.has_errors()) {
    out.error = "lint: " + diag::summary_line(lint.diagnostics.front());
    return out;
  }
  {
    const auto span = tracer.span("core.synthesize");
    out.report = core::synthesize(assay, options);
  }
  std::vector<diag::Diagnostic> findings;
  {
    const auto span = tracer.span("schedule.certify");
    findings = schedule::certify_result(out.report.result, assay, out.report.transport);
  }
  if (!findings.empty()) {
    out.error = "certify: " + diag::summary_line(findings.front());
    return out;
  }
  out.objective =
      schedule::evaluate_objective(out.report.result, assay, options.costs).weighted_total;
  sim::CompiledSchedule compiled;
  {
    const auto span = tracer.span("sim.compile");
    compiled = sim::compile_schedule(out.report.result, assay);
  }
  sim::RuntimeOptions runtime;
  runtime.seed = input.replay_seed;
  sim::ReplaySummary summary;
  sim::RunTrace trace;
  {
    const auto span = tracer.span("sim.replay");
    trace = replayer.run(compiled, runtime, &summary);
  }
  out.replay_events = summary.events;
  if (!trace.ok() ||
      static_cast<int>(trace.completed.size()) != assay.operation_count()) {
    out.error = "replay did not complete every operation";
  }
  return out;
}

std::vector<Input> make_inputs(const RunConfig& config) {
  Rng rng(derive_stream_seed(config.seed, kStreamTag, 0));
  std::vector<Input> inputs;
  for (const char* protocol : kProtocols) {
    const std::string text =
        read_file(config.root + "/examples/protocols/" + protocol + ".assay");
    for (int v = 0; v < kVariants; ++v) {
      Input input;
      input.protocol = protocol;
      input.text = text;
      input.layering_seed = rng.next_u64();
      input.replay_seed = rng.next_u64();
      inputs.push_back(std::move(input));
    }
  }
  return inputs;
}

}  // namespace

WorkloadResult run_paper_flow(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  std::vector<Input> inputs;
  // Set-up: read the protocols, derive the inputs, and run each input once
  // (warming caches and recording the objective later passes must repeat).
  result.setup = timed_setup(kSetupRepetitions, [&] {
    inputs = make_inputs(config);
    Tracer off(false);
    sim::Replayer replayer;
    for (Input& input : inputs) {
      const FlowOutcome outcome = run_flow(input, off, nullptr, replayer);
      input.objective = outcome.error.empty() ? outcome.objective : std::nan("");
    }
  });
  for (const Input& input : inputs) {
    result.objective_sum += input.objective;
  }

  SolveCounters counters(tracer);
  sim::Replayer replayer;
  double layers = 0, iterations = 0, boundary = 0, diagnostics = 0, events = 0;
  // One assay through the flow; returns its latency in milliseconds.
  const auto run_one = [&](std::size_t index) {
    const Input& input = inputs[index];
    tracer.begin_item();
    const Clock::time_point begin = Clock::now();
    FlowOutcome outcome =
        run_flow(input, tracer, tracer.enabled() ? &counters : nullptr, replayer);
    const double latency_ms = ms_since(begin);
    result.sample(index, latency_ms);
    if (outcome.error.empty() &&
        !(std::abs(outcome.objective - input.objective) <= 1e-9 * std::abs(input.objective))) {
      outcome.error = "objective " + std::to_string(outcome.objective) +
                      " differs from the set-up pass " + std::to_string(input.objective);
    }
    result.check(outcome.error.empty() ? "" : input.protocol + ": " + outcome.error);

    if (tracer.enabled() && outcome.assay.has_value()) {
      // Probes outside the latency clock: Algorithm 1 on its own (synthesize
      // runs it internally, where it cannot be timed from outside) and the
      // plan's shape.
      const model::Assay& assay = *outcome.assay;
      {
        const auto span = tracer.span("core.layering");
        (void)core::layer_assay(assay, synthesis_options(input).layering);
      }
      layers += outcome.report.plan.layer_count();
      for (const int storage : core::boundary_storage(outcome.report.plan, assay)) {
        boundary += storage;
      }
      iterations += static_cast<double>(outcome.report.iterations.size()) - 1.0;
      diagnostics += static_cast<double>(outcome.diagnostics);
      events += static_cast<double>(outcome.replay_events);
    }
    return latency_ms;
  };

  // Whole passes over the inputs, each in a fresh order on the next CPU. A
  // pass's time is the sum of its assays' latencies, so the traced run's
  // probes stay out of it.
  Rng order_rng(derive_stream_seed(config.seed, kStreamTag, 1));
  const CpuRotation rotation;
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(start) < config.seconds; ++pass) {
    rotation.pin(pass);
    result.probe.sample_every(SpeedProbe::kInterval_s);
    double pass_ms = 0.0;
    for (const std::size_t index : shuffled(inputs.size(), order_rng)) {
      pass_ms += run_one(index);
    }
    result.rounds.push_back({pass_ms / 1e3, static_cast<double>(inputs.size())});
  }

  if (tracer.enabled()) {
    const double n = std::max<double>(1.0, static_cast<double>(result.latencies_ms.size()));
    auto& layer = result.layer;
    layer["io.parse_ms"] = tracer.total_ms("io.parse") / n;
    layer["analysis.lint_ms"] = tracer.total_ms("analysis.lint") / n;
    layer["analysis.diagnostics"] = diagnostics / n;
    layer["core.layering_ms"] = tracer.total_ms("core.layering") / n;
    layer["core.layers"] = layers / n;
    layer["core.boundary_storage"] = boundary / n;
    layer["core.synthesize_ms"] = tracer.total_ms("core.synthesize") / n;
    layer["core.resynthesis_iterations"] = iterations / n;
    layer["core.flow_self_ms"] = tracer.self_ms("core.synthesize") / n;
    counters.publish(layer, n);
    layer["schedule.certify_ms"] = tracer.total_ms("schedule.certify") / n;
    layer["sim.compile_ms"] = tracer.total_ms("sim.compile") / n;
    const double replay_ms = tracer.total_ms("sim.replay");
    layer["sim.replay_us"] = replay_ms * 1e3 / n;
    layer["sim.events"] = events / n;
    layer["sim.events_per_s"] = replay_ms > 0.0 ? events / (replay_ms / 1e3) : 0.0;
    layer["sim.wheel_posted"] = static_cast<double>(replayer.wheel_stats().posted) / n;
    layer["sim.wheel_cascaded"] = static_cast<double>(replayer.wheel_stats().cascaded) / n;
  }
  return result;
}

}  // namespace perfbench
