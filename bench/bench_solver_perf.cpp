// Solver benchmark of the branch-and-bound MILP solver in its one
// configuration: sparse revised simplex, presolve at the root, dual
// re-solves from the parent basis at every child node and pseudocost
// branching. Instances are the actual per-layer MILPs that arise
// while synthesizing the Table-2 bioassays — captured through the
// LayerSolveCache hook — plus random mixed integer programs. Every instance
// is checked: a truncated search must still hold an incumbent, every
// incumbent must be feasible, and no objective may lie below the root LP
// relaxation solved independently by the dense-tableau reference
// (tests/support). A failed check makes the binary exit non-zero, so the CI
// smoke run doubles as a correctness test.
//
// Output: a human-readable table, and (full mode) BENCH_solver.json with
// one record per instance holding nodes, pivots and wall ms.
//
// Every captured layer model carries its combinatorial bound provider
// (core::IlpLayerModel::bound_provider) and the encoded heuristic layer
// result, as synthesize_layer builds them. The truncated layer rows attach
// both, as production does. The closure rows attach only the bound provider:
// with the configuration-cost floor cuts the big case-2/3 layer-0 MILPs
// CLOSE to proven optimality (550/548) without a warm start, which the
// --closure mode and the full run assert. Full mode also
// re-solves the case-2/3 layer MILPs, the same assays re-layered at a low
// indeterminate threshold and harder random MIPs with generous node budgets
// ("closure rows"); the low-threshold and random rows must close.
//
// Usage: bench_solver_perf [--smoke] [--closure] [--out <path>]
//   --smoke    quick checked run (CI), no JSON
//   --closure  case2/case3 layer-0 closure gate (CI Release), no JSON
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/ilp_layer_model.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/solve_hooks.hpp"
#include "lp/simplex.hpp"
#include "milp/bounds.hpp"
#include "milp/branch_and_bound.hpp"
#include "schedule/list_scheduler.hpp"
#include "support/lp_oracles.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace cohls;

namespace {

using Clock = std::chrono::steady_clock;

// --- instance capture --------------------------------------------------------

/// A captured per-layer MILP plus the combinatorial node-bound provider and
/// the heuristic warm start the production search attaches to it.
struct CapturedLayer {
  milp::MilpModel model;
  std::shared_ptr<const milp::NodeBoundProvider> bounds;
  /// The heuristic layer result encoded onto the model; empty when it does
  /// not map onto the model's device slots (or for random instances).
  std::vector<double> warm_start;
};

/// A LayerSolveCache that never hits: it rebuilds the layer MILP as
/// synthesize_layer would (same inputs, a wider gate) and keeps a copy of
/// the model, its bound provider and the encoded heuristic result, letting
/// synthesis proceed untouched.
class ModelRecorder final : public core::LayerSolveCache {
 public:
  explicit ModelRecorder(std::size_t cap) : cap_(cap) {}

  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& ctx) override {
    if (models_.size() >= cap_ || !applicable(ctx)) {
      return std::nullopt;
    }
    core::IlpLayerInputs inputs;
    inputs.layer = ctx.request.layer;
    inputs.ops = ctx.request.ops;
    for (const DeviceId id : ctx.request.usable_devices) {
      inputs.fixed_devices.emplace_back(id, ctx.inventory.device(id).config);
    }
    inputs.hints = ctx.request.hints;
    // Indeterminate operations must run on pairwise-distinct devices, so a
    // layer with k of them needs at least k visible devices to be feasible.
    // Offer enough new slots to cover that (the raised-threshold engine
    // configuration this benchmark informs does the same).
    int indeterminate = 0;
    for (const OperationId id : ctx.request.ops) {
      if (ctx.assay.operation(id).indeterminate()) {
        ++indeterminate;
      }
    }
    const int base_slots = ctx.request.allow_new_devices
                               ? std::min(ctx.engine.ilp_new_slots,
                                          ctx.inventory.max_devices() - ctx.inventory.size())
                               : 0;
    inputs.new_slots = std::max(base_slots, indeterminate);
    if (static_cast<int>(inputs.fixed_devices.size() + inputs.hints.size()) +
            inputs.new_slots >
        kCaptureMaxDevices) {
      return std::nullopt;
    }
    inputs.prior_binding = ctx.request.prior_binding;
    inputs.existing_paths = ctx.request.existing_paths;
    try {
      const core::IlpLayerModel ilp(ctx.assay, std::move(inputs), ctx.transport,
                                    ctx.costs);
      // The heuristic candidate, scheduled on a copy of the inventory
      // exactly as synthesize_layer schedules it.
      model::DeviceInventory inventory = ctx.inventory;
      const schedule::LayerResult heuristic = schedule::schedule_layer(
          ctx.request, ctx.assay, ctx.transport, ctx.costs, inventory);
      models_.push_back(
          {ilp.model(), ilp.bound_provider(), ilp.encode(heuristic, inventory)});
    } catch (const std::exception&) {
      // A model we cannot build is simply not benchmarked.
    }
    return std::nullopt;
  }

  void store(const core::LayerSolveContext&, const core::LayerOutcome&) override {}

  [[nodiscard]] const std::vector<CapturedLayer>& models() const { return models_; }

 private:
  /// Mirrors the synthesize_layer gate but with a wider box (ops <= 12,
  /// devices <= 10): the point of the benchmark is to measure what the
  /// solvers sustain on layer models at and beyond the current EngineOptions
  /// thresholds, so the thresholds themselves can be set from data.
  static constexpr int kCaptureMaxOps = 12;
  static constexpr int kCaptureMaxDevices = 10;

  static bool applicable(const core::LayerSolveContext& ctx) {
    if (static_cast<int>(ctx.request.ops.size()) > kCaptureMaxOps) {
      return false;
    }
    return !ctx.request.binds && !ctx.request.new_config;
  }

  std::size_t cap_;
  std::vector<CapturedLayer> models_;
};

std::vector<CapturedLayer> capture_layer_models(const model::Assay& assay,
                                                std::size_t cap,
                                                int indeterminate_threshold = 10) {
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = indeterminate_threshold;
  ModelRecorder recorder(cap);
  options.layer_cache = &recorder;
  (void)core::synthesize(assay, options);
  return recorder.models();
}

milp::MilpModel make_random_milp(std::uint64_t seed) {
  Rng rng{seed};
  milp::MilpModel model;
  const int n = static_cast<int>(rng.uniform_int(6, 14));
  for (int j = 0; j < n; ++j) {
    const auto shape = rng.uniform_int(0, 2);
    if (shape == 0) {
      model.add_binary(static_cast<double>(rng.uniform_int(-6, 6)));
    } else if (shape == 1) {
      const int lb = static_cast<int>(rng.uniform_int(-3, 0));
      model.add_variable(milp::VarKind::Continuous, lb, lb + rng.uniform_int(2, 8),
                         static_cast<double>(rng.uniform_int(-4, 4)));
    } else {
      const int lb = static_cast<int>(rng.uniform_int(-2, 0));
      model.add_variable(milp::VarKind::Integer, lb, lb + rng.uniform_int(1, 6),
                         static_cast<double>(rng.uniform_int(-5, 5)));
    }
  }
  const int m = static_cast<int>(rng.uniform_int(4, 10));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform_int(0, 2) != 0) {
        continue;  // ~2/3 sparsity
      }
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense = rng.uniform_int(0, 3) == 0 ? lp::RowSense::GreaterEqual
                                                  : lp::RowSense::LessEqual;
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.uniform_int(2, 12)));
  }
  return model;
}

// --- measurement -------------------------------------------------------------

struct Measurement {
  milp::MilpStatus status = milp::MilpStatus::NoSolution;
  double objective = 0.0;
  bool has_objective = false;
  bool closed = false;      ///< the search proved optimality or infeasibility
  double best_bound = 0.0;  ///< proven lower bound at exit
  double gap = 0.0;         ///< objective - best_bound when an incumbent exists
  long nodes = 0;
  long pivots = 0;
  long warm_solves = 0;
  long bound_prunes = 0;
  long cutoff_prunes = 0;
  double wall_ms = 0.0;
};

/// Whether a solve attaches the captured warm start: truncated layer rows
/// do, as production always does; closure rows search cold.
enum class Start { Cold, Warm };

milp::MilpOptions solver_config(long node_cap, const CapturedLayer& instance, Start start) {
  milp::MilpOptions options;
  // Random instances (node_cap == 0) run to completion; layer models get a
  // node budget so wall-per-node is comparable across runs and hosts.
  options.max_nodes = node_cap > 0 ? node_cap : 2000000;
  options.time_limit_seconds = 600.0;
  options.bounds = instance.bounds;
  if (start == Start::Warm && !instance.warm_start.empty()) {
    options.warm_start = instance.warm_start;
  }
  return options;
}

void fill_common(Measurement& out, const milp::MilpSolution& solution) {
  out.status = solution.status;
  out.has_objective = solution.status == milp::MilpStatus::Optimal ||
                      solution.status == milp::MilpStatus::Feasible;
  out.objective = out.has_objective ? solution.objective : 0.0;
  out.closed = solution.status == milp::MilpStatus::Optimal ||
               solution.status == milp::MilpStatus::Infeasible;
  out.best_bound = solution.best_bound;
  out.gap = out.has_objective ? solution.objective - solution.best_bound : 0.0;
  out.nodes = solution.milp_nodes;
  out.pivots = solution.lp_pivots;
  out.warm_solves = solution.lp_warm_solves;
  out.bound_prunes = solution.milp_bound_prunes;
  out.cutoff_prunes = solution.milp_cutoff_prunes;
}

struct InstanceRow {
  std::string name;
  int vars = 0;
  int rows = 0;
  Measurement m;
  /// Objective of the root LP relaxation, solved by the dense-tableau
  /// reference; nothing when the relaxation is infeasible.
  std::optional<double> root_lp;
  bool ok = false;  ///< the checks in run_instance passed
};

InstanceRow run_instance(const std::string& name, const CapturedLayer& instance,
                         int repetitions, long node_cap, Start start) {
  InstanceRow row;
  row.name = name;
  row.vars = instance.model.variable_count();
  row.rows = instance.model.constraint_count();
  const milp::MilpOptions options = solver_config(node_cap, instance, start);
  row.m.wall_ms = std::numeric_limits<double>::infinity();
  milp::MilpSolution solution;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto begin = Clock::now();
    solution = milp::solve_milp(instance.model, options);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
    row.m.wall_ms = std::min(row.m.wall_ms, ms);  // min over reps: least-noise estimate
    fill_common(row.m, solution);
  }
  const lp::LpSolution relaxation = oracles::solve_lp_dense(instance.model.lp());
  if (relaxation.status == lp::LpStatus::Optimal) {
    row.root_lp = relaxation.objective;
  }
  // A truncated search must still hold SOME incumbent (the heuristic warm
  // start guarantees one on the layer rows); an incumbent must be feasible
  // and can never beat the LP relaxation.
  row.ok = row.m.status != milp::MilpStatus::NoSolution;
  if (row.m.has_objective) {
    row.ok = row.ok && instance.model.is_feasible(solution.values, 1e-5) &&
             row.root_lp.has_value() && row.m.objective >= *row.root_lp - 1e-6;
  }
  return row;
}

std::string json_record(const InstanceRow& row) {
  const Measurement& m = row.m;
  std::ostringstream os;
  os << "    {\"instance\": \"" << row.name
     << "\", \"vars\": " << row.vars << ", \"rows\": " << row.rows
     << ", \"status\": \"" << milp::to_string(m.status) << "\", \"nodes\": " << m.nodes
     << ", \"pivots\": " << m.pivots << ", \"warm_solves\": " << m.warm_solves
     << ", \"closed\": " << (m.closed ? "true" : "false")
     << ", \"objective\": " << (m.has_objective ? std::to_string(m.objective) : "null")
     << ", \"best_bound\": " << m.best_bound << ", \"proven_gap\": " << m.gap
     << ", \"bound_prunes\": " << m.bound_prunes
     << ", \"cutoff_prunes\": " << m.cutoff_prunes
     << ", \"root_lp\": " << (row.root_lp ? std::to_string(*row.root_lp) : "null")
     << ", \"checked\": " << (row.ok ? "true" : "false")
     << ", \"wall_ms\": " << m.wall_ms << "}";
  return os.str();
}

/// The acceptance gate of the bound-driven search: the big Table-2 layer-0
/// MILPs close to proven optimality at (or below) the known incumbents.
struct ClosureGate {
  const char* instance;
  double known_incumbent;
  bool seen = false;
  bool ok = false;
};

void check_closure(std::vector<ClosureGate>& gates, const InstanceRow& row) {
  for (ClosureGate& gate : gates) {
    if (row.name == gate.instance) {
      gate.seen = true;
      gate.ok = row.ok && row.m.status == milp::MilpStatus::Optimal &&
                row.m.objective <= gate.known_incumbent + 1e-6;
    }
  }
}

/// Reports every gate; true when all of them were captured and closed.
bool report_closure(const std::vector<ClosureGate>& gates) {
  bool ok = true;
  for (const ClosureGate& gate : gates) {
    if (gate.seen && gate.ok) {
      std::cout << gate.instance << ": closed to proven optimality at <= "
                << gate.known_incumbent << "\n";
    } else {
      std::cout << "CLOSURE GATE FAILED: " << gate.instance
                << (gate.seen ? " did not close optimally at <= " : " was not captured")
                << (gate.seen ? std::to_string(gate.known_incumbent) : std::string())
                << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool closure_only = false;
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--closure") {
      closure_only = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_solver_perf [--smoke] [--closure] [--out <path>]\n";
      return 2;
    }
  }

  std::vector<ClosureGate> closure_gates{{"case2-layer-0", 550.0},
                                         {"case3-layer-0", 548.0}};
  if (closure_only) {
    // CI Release closure gate: the big Table-2 layer-0 MILPs (the full
    // 10-indeterminate-op layers) must close to proven optimality at or
    // below the known incumbents, with a checked incumbent.
    struct ClosureSpec {
      const char* tag;
      model::Assay assay;
    };
    std::vector<ClosureSpec> specs;
    specs.push_back({"case2", assays::gene_expression_assay()});
    specs.push_back({"case3", assays::rt_qpcr_assay()});
    for (const ClosureSpec& spec : specs) {
      const auto models = capture_layer_models(spec.assay, 1);
      int index = 0;
      for (const CapturedLayer& captured : models) {
        std::ostringstream name;
        name << spec.tag << "-layer-" << index++;
        const InstanceRow row =
            run_instance(name.str(), captured, 1, /*node_cap=*/5000, Start::Cold);
        check_closure(closure_gates, row);
        std::cout << row.name << ": " << milp::to_string(row.m.status)
                  << " obj=" << row.m.objective << " bound=" << row.m.best_bound
                  << " nodes=" << row.m.nodes << " bound_prunes=" << row.m.bound_prunes
                  << ", " << row.m.wall_ms << " ms\n";
      }
    }
    const bool ok = report_closure(closure_gates);
    std::cout << (ok ? "closure gate passed: case2/case3 layer-0 proven optimal\n"
                     : "closure gate FAILED\n");
    return ok ? 0 : 1;
  }

  const int repetitions = smoke ? 1 : 3;
  const std::size_t cap_per_case = smoke ? 1 : 3;
  const int random_count = smoke ? 6 : 30;
  // Node budget for the Table-2 layer rows; closure of the big layer-0
  // models is asserted by the closure rows below, with a generous cap.
  const long layer_node_cap = smoke ? 25 : 120;

  std::cout << "=== Solver performance: revised warm-started B&B ===\n";
  std::cout << "(instances: Table-2 per-layer MILPs + random MIPs; "
            << (smoke ? "smoke" : "full") << " mode)\n\n";

  struct CaseSpec {
    const char* tag;
    model::Assay assay;
  };
  // Case 1 (kinase) is absent: its only layer has 16 operations, beyond
  // the capture box, so it yields no row.
  std::vector<CaseSpec> cases;
  cases.push_back({"case2", assays::gene_expression_assay()});
  if (!smoke) {
    cases.push_back({"case3", assays::rt_qpcr_assay()});
  }

  std::vector<InstanceRow> rows;
  // Case-2/3 layer models are kept for the closure rows below.
  std::vector<std::pair<std::string, CapturedLayer>> table2_models;
  for (const CaseSpec& spec : cases) {
    const auto models = capture_layer_models(spec.assay, cap_per_case);
    std::cout << spec.tag << ": captured " << models.size() << " layer MILPs\n";
    int index = 0;
    for (const CapturedLayer& captured : models) {
      std::ostringstream name;
      name << spec.tag << "-layer-" << index++;
      rows.push_back(run_instance(name.str(), captured, 1, layer_node_cap, Start::Warm));
      table2_models.emplace_back(name.str(), captured);
    }
  }
  for (int i = 0; i < random_count; ++i) {
    std::ostringstream name;
    name << "rand-" << i;
    rows.push_back(run_instance(name.str(),
                                CapturedLayer{make_random_milp(
                                                  static_cast<std::uint64_t>(i) *
                                                      6364136223846793005ULL +
                                                  1442695040888963407ULL),
                                              nullptr, {}},
                                repetitions, /*node_cap=*/0, Start::Cold));
  }

  const auto print_rows = [](const std::vector<InstanceRow>& printed) {
    TextTable table({"Instance", "Size", "Status", "Objective", "Root LP", "Nodes",
                     "Pivots", "ms", "ms/node", "Checked"});
    for (const InstanceRow& row : printed) {
      std::ostringstream size, objective, root_lp, ms, per_node;
      size << row.vars << "x" << row.rows;
      objective.precision(4);
      objective << std::fixed << row.m.objective;
      root_lp.precision(4);
      root_lp << std::fixed << row.root_lp.value_or(0.0);
      ms.precision(3);
      ms << std::fixed << row.m.wall_ms;
      per_node.precision(4);
      per_node << std::fixed
               << row.m.wall_ms / std::max<double>(1.0, static_cast<double>(row.m.nodes));
      table.add_row({row.name, size.str(), milp::to_string(row.m.status),
                     row.m.has_objective ? objective.str() : "-",
                     row.root_lp ? root_lp.str() : "infeasible",
                     std::to_string(row.m.nodes), std::to_string(row.m.pivots), ms.str(),
                     per_node.str(), row.ok ? "yes" : "NO"});
    }
    table.print(std::cout);
  };
  print_rows(rows);
  bool all_checked = true;
  for (const InstanceRow& row : rows) {
    all_checked = all_checked && row.ok;
  }
  std::cout << "\nincumbents: "
            << (all_checked ? "all feasible and above their LP relaxation"
                            : "CHECK FAILED (missing, infeasible or below the LP relaxation)")
            << "\n";

  // --- closure rows (full mode) ----------------------------------------------
  std::vector<InstanceRow> closure_rows;
  bool closure_ok = true;
  if (!smoke) {
    std::cout << "\n=== Closure rows: generous node budgets ===\n";
    // The case-2/3 layer rows again, at a budget the layer-0 models close
    // well inside (they feed the closure gate); then the low-threshold
    // re-layered assays and the random instances, which must all close.
    std::vector<bool> must_close;
    for (const auto& [name, captured] : table2_models) {
      closure_rows.push_back(run_instance(name, captured, 1, /*node_cap=*/5000, Start::Cold));
      must_close.push_back(false);
      check_closure(closure_gates, closure_rows.back());
    }
    struct ClosedSpec {
      const char* tag;
      model::Assay assay;
    };
    std::vector<ClosedSpec> closed_specs;
    closed_specs.push_back({"case2-t5", assays::gene_expression_assay()});
    closed_specs.push_back({"case3-t5", assays::rt_qpcr_assay()});
    for (const ClosedSpec& spec : closed_specs) {
      const auto models =
          capture_layer_models(spec.assay, 2, /*indeterminate_threshold=*/5);
      int index = 0;
      for (const CapturedLayer& captured : models) {
        std::ostringstream name;
        name << spec.tag << "-layer-" << index++;
        closure_rows.push_back(
            run_instance(name.str(), captured, 1, /*node_cap=*/20000, Start::Cold));
        must_close.push_back(true);
      }
    }
    for (int i = 0; i < 4; ++i) {
      std::ostringstream name;
      name << "rand-scale-" << i;
      closure_rows.push_back(run_instance(
          name.str(),
          CapturedLayer{make_random_milp(static_cast<std::uint64_t>(i) *
                                             2862933555777941757ULL +
                                         3037000493ULL),
                        nullptr, {}},
          1, /*node_cap=*/2000, Start::Cold));
      must_close.push_back(true);
    }
    print_rows(closure_rows);
    for (std::size_t i = 0; i < closure_rows.size(); ++i) {
      const InstanceRow& row = closure_rows[i];
      closure_ok = closure_ok && row.ok;
      if (!row.ok) {
        std::cout << row.name << ": CHECK FAILED\n";
      }
      if (must_close[i] && !row.m.closed) {
        std::cout << row.name << ": search did not close at its node cap\n";
        closure_ok = false;
      }
    }
    closure_ok = report_closure(closure_gates) && closure_ok;
  }

  if (!smoke) {
    std::ofstream out(out_path);
    out << "{\n  \"benchmark\": \"bench_solver_perf\",\n";
    out << "  \"solver\": \"sparse revised simplex, root presolve, warm dual re-solves, "
           "pseudocost branching\",\n";
    out << "  \"all_checked\": " << (all_checked ? "true" : "false") << ",\n";
    out << "  \"closure\": [";
    for (std::size_t g = 0; g < closure_gates.size(); ++g) {
      const ClosureGate& gate = closure_gates[g];
      out << (g > 0 ? ", " : "") << "{\"instance\": \"" << gate.instance
          << "\", \"known_incumbent\": " << gate.known_incumbent
          << ", \"closed\": " << (gate.seen && gate.ok ? "true" : "false") << "}";
    }
    out << "],\n";
    out << "  \"closure_records\": [\n";
    for (std::size_t i = 0; i < closure_rows.size(); ++i) {
      out << json_record(closure_rows[i]) << (i + 1 < closure_rows.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << json_record(rows[i]) << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }

  return all_checked && closure_ok ? 0 : 1;
}
