// Micro-benchmarks (google-benchmark) for the substrate algorithms: the
// revised simplex (cold solve and warm child re-solve), branch-and-bound,
// the layer-model build and its presolve, max-flow, layering, one
// list-scheduled layer, a full synthesis pass, the flow's bookkeeping
// (transport refinement and certification of a synthesized result), a
// recovery mission (one broken replay and its recovery round; one replay
// the fault plan never breaks), the text front end (lex, build and lint of
// a protocol) and the layer cache's key (one signature; one missed lookup
// plus its store).
// These track the cost of the pieces the paper's runtime column depends on.
// The binary counts the calling thread's heap allocations (a replaced global
// operator new), which BM_BuildAssay reports per build.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "assays/benchmarks.hpp"
#include "analysis/linter.hpp"
#include "assays/random_assay.hpp"
#include "core/ilp_layer_model.hpp"
#include "core/layering.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "core/transport_estimator.hpp"
#include "engine/layer_cache.hpp"
#include "engine/layer_signature.hpp"
#include "graph/max_flow.hpp"
#include "io/assay_source.hpp"
#include "io/assay_text.hpp"
#include "lp/presolve.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/validate.hpp"
#include "sim/runtime.hpp"
#include "support/layer_capture.hpp"
#include "util/rng.hpp"

namespace {

/// Heap allocations made by this thread so far.
thread_local std::uint64_t allocations = 0;

}  // namespace

// Out of line, so that no caller sees new and delete pair up as malloc and
// free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++allocations;
  if (void* memory = std::malloc(size == 0 ? 1 : size)) {
    return memory;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* memory) noexcept { std::free(memory); }
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace {

using namespace cohls;

lp::LpModel random_dense_lp(int n) {
  Rng rng{7};
  lp::LpModel model;
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, 10.0, static_cast<double>(rng.uniform_int(-5, 5)));
  }
  for (int i = 0; i < n; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      const auto c = rng.uniform_int(-2, 2);
      if (c != 0) {
        terms.emplace_back(j, static_cast<double>(c));
      }
    }
    model.add_constraint(std::move(terms), lp::RowSense::LessEqual,
                         static_cast<double>(rng.uniform_int(5, 30)));
  }
  return model;
}

/// One cold revised-simplex solve (CSC build, phase 1 and phase 2).
void BM_SimplexRevised(benchmark::State& state) {
  const lp::LpModel model = random_dense_lp(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_lp(model));
  }
}
BENCHMARK(BM_SimplexRevised)->Arg(10)->Arg(30)->Arg(60);

/// One branch-and-bound child re-solve: a single bound change, then the
/// dual simplex from the parent's optimal basis.
void BM_SimplexRevisedWarm(benchmark::State& state) {
  const lp::LpModel model = random_dense_lp(static_cast<int>(state.range(0)));
  lp::RevisedSimplex solver(model);
  const lp::LpSolution parent = solver.solve();
  const lp::Basis parent_basis = solver.basis();
  // Branch on the column with the largest optimal value: cap it at half.
  const auto largest = std::max_element(parent.values.begin(), parent.values.end());
  const lp::Col col = static_cast<lp::Col>(largest - parent.values.begin());
  const double tightened = std::floor(*largest / 2.0);
  for (auto _ : state) {
    solver.set_bounds(col, model.lower_bound(col), tightened);
    benchmark::DoNotOptimize(solver.solve_from(parent_basis));
    solver.set_bounds(col, model.lower_bound(col), model.upper_bound(col));
  }
}
BENCHMARK(BM_SimplexRevisedWarm)->Arg(10)->Arg(30)->Arg(60);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng{11};
  milp::MilpModel model;
  std::vector<lp::Term> row;
  for (int i = 0; i < n; ++i) {
    const auto b = model.add_binary(-static_cast<double>(rng.uniform_int(1, 9)));
    row.emplace_back(b, static_cast<double>(rng.uniform_int(1, 5)));
  }
  model.add_constraint(std::move(row), lp::RowSense::LessEqual, 1.5 * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::solve_milp(model));
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(8)->Arg(12);

/// The case-2 layer-0 model at t = 10 (386 x 1335), as the milp-closure
/// benchmark captures it.
const oracles::LayerCapture& case2_layer0() {
  static const oracles::LayerCapture capture =
      oracles::capture_layers("case2", assays::gene_expression_assay(), 10, 1).at(0);
  return capture;
}

/// One IlpLayerModel build: every column and row of constraints (1)-(21).
void BM_BuildLayerModel(benchmark::State& state) {
  const oracles::LayerCapture& capture = case2_layer0();
  int rows = 0;
  for (auto _ : state) {
    const core::IlpLayerModel ilp(*capture.assay, capture.inputs, capture.transport,
                                  capture.costs);
    rows = ilp.model().constraint_count();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_BuildLayerModel);

/// One lp::presolve of the same model, as branch and bound runs at the root.
void BM_PresolveLayerModel(benchmark::State& state) {
  const oracles::LayerCapture& capture = case2_layer0();
  const core::IlpLayerModel ilp(*capture.assay, capture.inputs, capture.transport,
                                capture.costs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::presolve(ilp.model().lp()));
  }
  state.counters["rows"] = static_cast<double>(ilp.model().constraint_count());
}
BENCHMARK(BM_PresolveLayerModel);

void BM_MaxFlow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng{13};
  for (auto _ : state) {
    state.PauseTiming();
    graph::FlowNetwork net{n};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rng.bernoulli(0.15)) {
          net.add_arc(i, j, rng.uniform_int(1, 20));
        }
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.min_cut(0, n - 1));
  }
}
BENCHMARK(BM_MaxFlow)->Arg(20)->Arg(60);

void BM_Layering(benchmark::State& state) {
  const model::Assay assay = assays::rt_qpcr_assay(static_cast<int>(state.range(0)));
  core::LayeringOptions options;
  options.indeterminate_threshold = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::layer_assay(assay, options));
  }
}
BENCHMARK(BM_Layering)->Arg(10)->Arg(20)->Arg(40);

// One schedule_layer call on the largest layer Algorithm 1 gives for an
// assay, on a fresh inventory each iteration: the per-stage cost of the
// heuristic every paper-protocol layer goes through.
void schedule_largest_layer(benchmark::State& state, const model::Assay& assay) {
  const core::SynthesisOptions defaults;
  const core::LayerPlan plan = core::layer_assay(assay, defaults.layering);
  schedule::LayerRequest request;
  for (int li = 0; li < plan.layer_count(); ++li) {
    if (plan.layer(li).size() > request.ops.size()) {
      request.layer = LayerId{li};
      request.ops = plan.layer(li);
    }
  }
  const schedule::TransportPlan transport{defaults.initial_transport};
  for (auto _ : state) {
    model::DeviceInventory inventory(defaults.max_devices);
    benchmark::DoNotOptimize(
        schedule::schedule_layer(request, assay, transport, defaults.costs, inventory));
  }
  state.counters["ops"] = static_cast<double>(request.ops.size());
}

// Case 3's largest layer.
void BM_ScheduleLayer(benchmark::State& state) {
  schedule_largest_layer(state, assays::rt_qpcr_assay());
}
BENCHMARK(BM_ScheduleLayer);

// Case 2's largest layer: the input that sets the paper flow's median.
void BM_ScheduleLayerCase2(benchmark::State& state) {
  schedule_largest_layer(state, assays::gene_expression_assay());
}
BENCHMARK(BM_ScheduleLayerCase2);

void BM_FullSynthesisCase1(benchmark::State& state) {
  const model::Assay assay = assays::kinase_activity_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::synthesize(assay, options));
  }
}
BENCHMARK(BM_FullSynthesisCase1);

void BM_FullSynthesisCase2(benchmark::State& state) {
  const model::Assay assay = assays::gene_expression_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::synthesize(assay, options));
  }
}
BENCHMARK(BM_FullSynthesisCase2);

// Case 3 (rt_qpcr, 120 ops): the input that sets the paper flow's p95.
void BM_FullSynthesisCase3(benchmark::State& state) {
  const model::Assay assay = assays::rt_qpcr_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::synthesize(assay, options));
  }
}
BENCHMARK(BM_FullSynthesisCase3);

/// One refine_transport call on the synthesized case-2 result: the Sec. 4.1
/// usage ranking every re-synthesis iteration starts from.
void BM_RefineTransportCase2(benchmark::State& state) {
  const model::Assay assay = assays::gene_expression_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  const core::SynthesisReport report = core::synthesize(assay, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::refine_transport(report.result, assay, options.progression,
                                                    options.initial_transport));
  }
}
BENCHMARK(BM_RefineTransportCase2);

/// One certify_result call on the synthesized case-3 result (120 ops).
void BM_CertifyCase3(benchmark::State& state) {
  const model::Assay assay = assays::rt_qpcr_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  const core::SynthesisReport report = core::synthesize(assay, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule::certify_result(report.result, assay, report.transport));
  }
}
BENCHMARK(BM_CertifyCase3);

/// The synthesized case-2 result (gene expression, 70 ops) and a fault plan
/// for a recovery mission on it: 0 fails a device mid-run, at the first
/// operation's midpoint whose loss one recovery round survives; 1 fails a
/// device after the run has ended, so the plan never bites.
struct MissionCase {
  model::Assay assay = assays::gene_expression_assay();
  core::MissionOptions mission;
  core::SynthesisReport report;
  sim::RuntimeOptions runtime;
};

MissionCase mission_case(bool bites) {
  MissionCase c;
  c.mission.synthesis.max_devices = 25;
  c.mission.max_rounds = 3;
  c.report = core::synthesize(c.assay, c.mission.synthesis);
  c.runtime.attempt_success_probability = 1.0;
  const DeviceId first_device = c.report.result.layers.front().items.front().device;
  if (!bites) {
    const Minutes end = sim::simulate_run(c.report.result, c.assay, c.runtime).completed_at;
    c.runtime.faults.events.push_back(sim::FaultEvent{
        sim::FaultKind::DeviceFailure, first_device, OperationId{}, end + Minutes{1}});
    return c;
  }
  for (const schedule::LayerSchedule& layer : c.report.result.layers) {
    for (const schedule::ScheduledOperation& item : layer.items) {
      c.runtime.faults.events.assign(
          1, sim::FaultEvent{sim::FaultKind::DeviceFailure, item.device, OperationId{},
                             item.start + Minutes{std::max<std::int64_t>(
                                              item.duration.count() / 2, 1)}});
      const core::MissionOutcome probe =
          core::run_mission(c.assay, c.report.result, c.runtime, c.mission);
      if (probe.recovered && probe.rounds == 1) {
        return c;
      }
    }
  }
  std::abort();  // no survivable mid-run failure: the case is mis-built
}

/// One core::run_mission call: replay, and for the biting plan one
/// recovery round (residual, re-synthesis, certification, stitching).
void BM_RunMission(benchmark::State& state) {
  static const MissionCase cases[] = {mission_case(true), mission_case(false)};
  const MissionCase& c = cases[state.range(0)];
  int rounds = 0;
  const std::uint64_t before = allocations;
  for (auto _ : state) {
    const core::MissionOutcome outcome =
        core::run_mission(c.assay, c.report.result, c.runtime, c.mission);
    rounds = outcome.rounds;
    benchmark::DoNotOptimize(outcome.final_trace.completed_at);
  }
  state.counters["rounds"] = rounds;
  state.counters["allocs_per_mission"] =
      static_cast<double>(allocations - before) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RunMission)->DenseRange(0, 1);

/// The text of paper case 1 (kinase activity, 16 ops), 2 (gene expression,
/// 70) or 3 (RT-qPCR, 120): examples/protocols/*.assay byte for byte.
const std::string& protocol_text(int paper_case) {
  static const std::string texts[] = {io::to_text(assays::kinase_activity_assay()),
                                      io::to_text(assays::gene_expression_assay()),
                                      io::to_text(assays::rt_qpcr_assay())};
  return texts[paper_case - 1];
}

/// The lexical parse of a protocol text (io::parse_assay_source).
void BM_ParseAssay(benchmark::State& state) {
  const std::string& text = protocol_text(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::parse_assay_source(text));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseAssay)->DenseRange(1, 3);

/// AssaySource::build() on a parsed protocol; the copy it consumes is made
/// outside the timed region. `allocs_per_build` counts the heap allocations
/// of build() alone.
void BM_BuildAssay(benchmark::State& state) {
  const io::AssaySource source =
      io::parse_assay_source(protocol_text(static_cast<int>(state.range(0))));
  std::uint64_t built = 0;
  for (auto _ : state) {
    state.PauseTiming();
    io::AssaySource copy = source;
    state.ResumeTiming();
    const std::uint64_t before = allocations;
    model::Assay assay = std::move(copy).build();
    built += allocations - before;
    benchmark::DoNotOptimize(assay);
  }
  state.counters["allocs_per_build"] =
      static_cast<double>(built) / static_cast<double>(state.iterations());
  state.counters["ops"] = static_cast<double>(source.operations.size());
}
BENCHMARK(BM_BuildAssay)->DenseRange(1, 3);

/// The default lint pipeline on a parsed protocol (analysis::lint_assay).
void BM_LintAssay(benchmark::State& state) {
  const io::AssaySource source =
      io::parse_assay_source(protocol_text(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::lint_assay(source));
  }
}
BENCHMARK(BM_LintAssay)->DenseRange(1, 3);

/// An owned copy of one layer-solve context and the solve's outcome.
struct CapturedLayer {
  model::Assay assay{"captured"};
  schedule::LayerRequest request;
  schedule::TransportPlan transport{Minutes{0}};
  model::CostModel costs;
  core::EngineOptions engine;
  model::DeviceInventory inventory{1};
  core::LayerOutcome outcome;

  [[nodiscard]] core::LayerSolveContext context() const {
    return {request, assay, transport, costs, engine, inventory};
  }
};

/// A cache that never hits and keeps the first context of one layer.
class LayerGrabber final : public core::LayerSolveCache {
 public:
  LayerGrabber(int layer, CapturedLayer& out) : layer_(layer), out_(out) {}
  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext&) override {
    return std::nullopt;
  }
  void store(const core::LayerSolveContext& context,
             const core::LayerOutcome& outcome) override {
    if (!grabbed_ && context.request.layer == LayerId{layer_}) {
      grabbed_ = true;
      out_.request = context.request;
      out_.transport = context.transport;
      out_.costs = context.costs;
      out_.engine = context.engine;
      out_.inventory = context.inventory;
      out_.outcome = outcome;
    }
  }

 private:
  int layer_;
  CapturedLayer& out_;
  bool grabbed_ = false;
};

/// The first-pass context of `layer` when `assay` is synthesized.
CapturedLayer capture_layer(model::Assay assay, int layer, core::SynthesisOptions options) {
  CapturedLayer captured;
  captured.assay = std::move(assay);
  LayerGrabber grabber(layer, captured);
  options.layer_cache = &grabber;
  (void)core::synthesize(captured.assay, options);
  return captured;
}

/// 0: case 2's layer 1 (gene expression, default options); 1: layer 0 of a
/// 48-op random assay, heuristic only (a batch-corpus job's shape).
const CapturedLayer& captured_layer(int which) {
  static const CapturedLayer layers[] = {
      capture_layer(assays::gene_expression_assay(), 1, core::SynthesisOptions{}),
      [] {
        assays::RandomAssayOptions shape;
        shape.operations = 48;
        core::SynthesisOptions options;
        options.engine.enable_ilp = false;
        return capture_layer(assays::random_assay(1, shape), 0, options);
      }()};
  return layers[which];
}

/// One engine::layer_signature call: the layer cache's key.
void BM_LayerSignature(benchmark::State& state) {
  const CapturedLayer& layer = captured_layer(static_cast<int>(state.range(0)));
  const core::LayerSolveContext context = layer.context();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const engine::LayerSignature signature = engine::layer_signature(context);
    bytes = signature.text.size();
    benchmark::DoNotOptimize(signature.hash);
  }
  state.counters["key_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_LayerSignature)->DenseRange(0, 1);

/// One missed lookup plus the store of its solve, on a fresh cache and a
/// fresh context: what a cacheable solve adds around the solver.
void BM_LayerCacheMissStore(benchmark::State& state) {
  const CapturedLayer& layer = captured_layer(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    engine::LayerSolutionCache cache(/*capacity=*/1, /*shards=*/1);
    const core::LayerSolveContext context = layer.context();
    benchmark::DoNotOptimize(cache.lookup(context));
    cache.store(context, layer.outcome);
  }
}
BENCHMARK(BM_LayerCacheMissStore)->DenseRange(0, 1);

}  // namespace
