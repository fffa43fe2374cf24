// Workload `milp-closure`: the paper protocols' per-layer MILPs, solved to
// closure.
//
// Why: this is the only workload where the exact path — layer-model build
// and branch and bound — does most of the work, so it is the one ROADMAP
// items 2 (bounds, dive, parallel B&B) and 4 (sparse LU, lazy disjunctions)
// will move, and its closures have known answers. The instances are the
// layer models that arise while synthesizing the gene-expression (case 2)
// and RT-qPCR (case 3) protocols at thresholds t = 10, 5, 3 and 2, captured
// through the public core::LayerSolveCache hook the way bench_solver_perf
// captures them. They include layer 0 at the default t = 10 (386 vars x 1335
// rows, MILP optimum 550 / 548). Each is re-solved serially through
// core::synthesize_layer with the EngineOptions gate opened to the capture
// box (<= 12 ops, <= 10 devices, enough new slots for the layer's
// indeterminate operations) and a node budget in place of the wall budget,
// so every solve is deterministic.
//
// Only layers without inherited devices are captured. On those, the
// heuristic warm start plus the combinatorial node bound close the search at
// the root (1 node, 0 LP pivots); layers that inherit devices (t = 2, layer
// >= 1, ~400 vars x 1000-2000 rows) do not close in minutes, far beyond one
// run of this benchmark.
//
// Bypasses: parsing, linting, layering, re-synthesis, the certifier, engine/
// and sim/ — only the heuristic warm start and the exact path run.
//
// Loop: closed, one thread, whole passes over the instance set until the
// window closes (at least one pass), each pass pinned to the next CPU. The
// seed only draws the order of every pass; the order moves the timings a
// little (allocator and cache state), so a run averages over many orders.
// Unit of work: one layer re-solve.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assays/benchmarks.hpp"
#include "common.hpp"
#include "core/ilp_layer_model.hpp"
#include "core/layer_synthesizer.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cohls;

/// The capture box of bench_solver_perf: the layer models the solver is
/// measured on, at and beyond the default EngineOptions gate (8 ops / 7
/// devices).
constexpr int kBoxOps = 12;
constexpr int kBoxDevices = 10;
/// Node budget per solve; every instance closes well inside it.
constexpr long kNodeBudget = 20000;
/// Layer solves captured per (protocol, threshold).
constexpr std::size_t kCapturesPerThreshold = 2;
constexpr int kSetupRepetitions = 15;
constexpr std::uint64_t kStreamTag = 0x4D494C50434C4F53ULL;  // "MILPCLOS"

/// Answers recorded for every instance at the commit that introduced this
/// benchmark: whether the MILP result was kept over the heuristic and the
/// kept layer score. A solver change that alters either is a correctness
/// failure, not a performance change.
struct KnownAnswer {
  const char* instance;
  bool used_ilp;
  double score;
};
constexpr KnownAnswer kKnownAnswers[] = {
    {"case2-t10-L0#1", true, 550.0}, {"case3-t10-L0#1", true, 548.0},
    {"case2-t5-L0#1", true, 280.0},  {"case3-t5-L0#1", true, 278.0},
    {"case2-t3-L0#1", true, 172.0},  {"case2-t3-L0#2", true, 172.0},
    {"case3-t3-L0#1", true, 170.0},  {"case3-t3-L0#2", true, 170.0},
    {"case2-t2-L0#1", true, 118.0},  {"case2-t2-L0#2", true, 118.0},
    {"case3-t2-L0#1", true, 116.0},  {"case3-t2-L0#2", true, 116.0},
};

struct Instance {
  std::string name;
  std::shared_ptr<const model::Assay> assay;
  schedule::LayerRequest request;
  schedule::TransportPlan transport;
  model::CostModel costs;
  model::DeviceInventory inventory{1};
  core::EngineOptions engine;
};

/// A LayerSolveCache that never hits: it copies the first `cap` layer-solve
/// contexts that fit the capture box and lets synthesis proceed untouched.
class Recorder final : public core::LayerSolveCache {
 public:
  Recorder(std::string tag, std::shared_ptr<const model::Assay> assay, std::size_t cap,
           std::vector<Instance>& out)
      : tag_(std::move(tag)), assay_(std::move(assay)), cap_(cap), out_(out) {}

  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& ctx) override {
    if (captured_ >= cap_ || static_cast<int>(ctx.request.ops.size()) > kBoxOps ||
        !ctx.request.usable_devices.empty() || ctx.request.binds || ctx.request.new_config) {
      return std::nullopt;
    }
    // Indeterminate operations run on pairwise-distinct devices, so a layer
    // with k of them needs k visible devices to be feasible.
    int indeterminate = 0;
    for (const OperationId id : ctx.request.ops) {
      indeterminate += ctx.assay.operation(id).indeterminate() ? 1 : 0;
    }
    const int room = ctx.inventory.max_devices() - ctx.inventory.size();
    const int base = ctx.request.allow_new_devices ? std::min(ctx.engine.ilp_new_slots, room) : 0;
    const int slots = std::max(base, indeterminate);
    const int visible = static_cast<int>(ctx.request.usable_devices.size() +
                                         ctx.request.hints.size()) +
                        slots;
    if (slots > room || visible > kBoxDevices) {
      return std::nullopt;
    }
    Instance instance;
    instance.name = tag_ + "-L" + std::to_string(ctx.request.layer.value()) + "#" +
                    std::to_string(captured_ + 1);
    instance.assay = assay_;
    instance.request = ctx.request;
    instance.transport = ctx.transport;
    instance.costs = ctx.costs;
    instance.inventory = ctx.inventory;
    instance.engine = ctx.engine;
    instance.engine.enable_ilp = true;
    instance.engine.ilp_max_ops = kBoxOps;
    instance.engine.ilp_max_devices = kBoxDevices;
    instance.engine.ilp_new_slots = slots;
    instance.engine.milp.max_nodes = kNodeBudget;
    instance.engine.milp.time_limit_seconds = 0.0;  // the node budget rules
    instance.engine.milp.threads = 1;
    out_.push_back(std::move(instance));
    ++captured_;
    return std::nullopt;
  }

  void store(const core::LayerSolveContext&, const core::LayerOutcome&) override {}

 private:
  std::string tag_;
  std::shared_ptr<const model::Assay> assay_;
  std::size_t cap_;
  std::size_t captured_ = 0;
  std::vector<Instance>& out_;
};

void capture(const std::string& tag, model::Assay assay, int threshold, std::size_t cap,
             std::vector<Instance>& out) {
  const auto shared = std::make_shared<const model::Assay>(std::move(assay));
  core::SynthesisOptions options;
  options.layering.indeterminate_threshold = threshold;
  Recorder recorder(tag + "-t" + std::to_string(threshold), shared, cap, out);
  options.layer_cache = &recorder;
  (void)core::synthesize(*shared, options);
}

std::vector<Instance> capture_instances() {
  std::vector<Instance> instances;
  for (const int threshold : {10, 5, 3, 2}) {
    capture("case2", assays::gene_expression_assay(), threshold, kCapturesPerThreshold,
            instances);
    capture("case3", assays::rt_qpcr_assay(), threshold, kCapturesPerThreshold, instances);
  }
  return instances;
}

/// The layer model synthesize_layer builds for `instance` (same inputs).
core::IlpLayerInputs model_inputs(const Instance& instance) {
  core::IlpLayerInputs inputs;
  inputs.layer = instance.request.layer;
  inputs.ops = instance.request.ops;
  for (const DeviceId id : instance.request.usable_devices) {
    inputs.fixed_devices.emplace_back(id, instance.inventory.device(id).config);
  }
  inputs.hints = instance.request.hints;
  inputs.new_slots = instance.request.allow_new_devices
                         ? std::min(instance.engine.ilp_new_slots,
                                    instance.inventory.max_devices() -
                                        instance.inventory.size())
                         : 0;
  inputs.prior_binding = instance.request.prior_binding;
  inputs.existing_paths = instance.request.existing_paths;
  inputs.pinned = instance.request.pinned;
  return inputs;
}

/// Empty when `outcome` matches the recorded answer for `name`.
std::string check_answer(const std::string& name, const core::LayerOutcome& outcome) {
  const std::string seen = "used_ilp=" + std::to_string(outcome.used_ilp) +
                           " score=" + std::to_string(outcome.score) +
                           " nodes=" + std::to_string(outcome.milp_nodes);
  if (outcome.milp_cancelled || outcome.milp_nodes >= kNodeBudget) {
    return name + ": search did not close within the node budget (" + seen + ")";
  }
  for (const KnownAnswer& answer : kKnownAnswers) {
    if (name == answer.instance) {
      if (outcome.used_ilp != answer.used_ilp ||
          std::abs(outcome.score - answer.score) > 1e-6) {
        return name + ": expected used_ilp=" + std::to_string(answer.used_ilp) +
               " score=" + std::to_string(answer.score) + ", got " + seen;
      }
      return "";
    }
  }
  return name + ": no recorded answer (" + seen + ")";
}

}  // namespace

WorkloadResult run_milp_closure(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  std::vector<Instance> instances;
  result.setup = timed_setup(kSetupRepetitions, [&] { instances = capture_instances(); });

  Rng rng(derive_stream_seed(config.seed, kStreamTag, 0));
  const CpuRotation rotation;
  double ilp = 0, nodes = 0, cutoff = 0, bound = 0, dive = 0;
  double pivots = 0, warm = 0, cold = 0, refactorizations = 0, closed = 0;
  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  do {
    rotation.pin(pass_s.size());
    result.probe.sample_every(SpeedProbe::kInterval_s);
    double pass = 0.0;
    for (const std::size_t index : shuffled(instances.size(), rng)) {
      const Instance& instance = instances[index];
      tracer.begin_item();
      const Clock::time_point begin = Clock::now();
      core::LayerOutcome outcome;
      {
        const auto span = tracer.span("core.synthesize_layer");
        outcome = core::synthesize_layer(instance.request, *instance.assay,
                                         instance.transport, instance.costs,
                                         instance.engine, instance.inventory);
      }
      result.sample(index, ms_since(begin));
      pass += result.latencies_ms.back() / 1e3;
      const std::string error = check_answer(instance.name, outcome);
      result.check(error);
      if (pass_s.empty()) {
        result.objective_sum += outcome.score;
      }
      closed += outcome.milp_cancelled || outcome.milp_nodes >= kNodeBudget ? 0.0 : 1.0;
      ilp += outcome.used_ilp ? 1.0 : 0.0;
      nodes += static_cast<double>(outcome.milp_nodes);
      cutoff += static_cast<double>(outcome.milp_cutoff_prunes);
      bound += static_cast<double>(outcome.milp_bound_prunes);
      dive += static_cast<double>(outcome.milp_dive_lp_solves);
      pivots += static_cast<double>(outcome.lp_pivots);
      warm += static_cast<double>(outcome.lp_warm_solves);
      cold += static_cast<double>(outcome.lp_cold_solves);
      refactorizations += static_cast<double>(outcome.lp_refactorizations);

      if (tracer.enabled()) {
        // Probes outside the latency clock split the solve: the heuristic
        // alone (the gate closed) and the layer model build.
        {
          const auto span = tracer.span("schedule.heuristic");
          core::EngineOptions heuristic = instance.engine;
          heuristic.enable_ilp = false;
          (void)core::synthesize_layer(instance.request, *instance.assay,
                                       instance.transport, instance.costs, heuristic,
                                       instance.inventory);
        }
        {
          const auto span = tracer.span("milp.model_build");
          const core::IlpLayerModel model(*instance.assay, model_inputs(instance),
                                          instance.transport, instance.costs);
          if (pass_s.empty()) {
            std::cout << "instance " << instance.name << " ops=" << instance.request.ops.size()
                      << " vars=" << model.model().variable_count()
                      << " rows=" << model.model().constraint_count()
                      << " used_ilp=" << outcome.used_ilp << " score=" << outcome.score
                      << " nodes=" << outcome.milp_nodes << " pivots=" << outcome.lp_pivots
                      << " ms=" << result.latencies_ms.back() << std::endl;
          }
        }
      }
    }
    pass_s.push_back(pass);
    result.rounds.push_back({pass, static_cast<double>(instances.size())});
  } while (seconds_since(start) < config.seconds);

  const double n = std::max<double>(1.0, static_cast<double>(result.latencies_ms.size()));
  result.extra["milp_total_s"] = quantile(pass_s, 0.5);
  result.extra["milp_closed_share"] = closed / n;
  result.extra["instances"] = static_cast<double>(instances.size());
  if (tracer.enabled()) {
    auto& layer = result.layer;
    const double solve_ms = tracer.total_ms("core.synthesize_layer");
    const double heuristic_ms = tracer.total_ms("schedule.heuristic");
    const double build_ms = tracer.total_ms("milp.model_build");
    // The MILP solve itself cannot be timed from outside synthesize_layer:
    // it is the call minus its heuristic and model-build parts.
    const double milp_ms = std::max(0.0, solve_ms - heuristic_ms - build_ms);
    layer["core.layer_solves"] = 1.0;
    layer["core.layer_solve_ms"] = solve_ms / n;
    layer["core.layer_solves_ilp"] = ilp / n;
    layer["schedule.heuristic_ms"] = heuristic_ms / n;
    layer["milp.model_build_ms"] = build_ms / n;
    layer["milp.solve_ms"] = milp_ms / n;
    layer["milp.nodes"] = nodes / n;
    layer["milp.cutoff_prunes"] = cutoff / n;
    layer["milp.bound_prunes"] = bound / n;
    layer["milp.dive_lp_solves"] = dive / n;
    layer["lp.pivots"] = pivots / n;
    layer["lp.warm_solves"] = warm / n;
    layer["lp.cold_solves"] = cold / n;
    layer["lp.refactorizations"] = refactorizations / n;
    layer["lp.us_per_pivot"] = pivots > 0 ? milp_ms * 1e3 / pivots : 0.0;
  }
  return result;
}

}  // namespace perfbench
