// Ablation D: exact MILP vs. list-scheduling heuristic on small layers.
// The paper solves every layer with Gurobi; our reproduction solves small
// layers exactly with the in-tree branch-and-bound and uses the heuristic
// beyond. This bench measures the optimality gap the heuristic leaves on
// random single-layer assays small enough for the exact engine.
#include <iomanip>
#include <iostream>
#include <sstream>

#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Ablation D: exact MILP vs heuristic (layer-level optimality"
               " gap) ===\n\n";

  assays::RandomAssayOptions gen;
  gen.operations = 5;
  gen.indeterminate_probability = 0.0;  // single determinate layer
  gen.max_parents = 2;

  TextTable table({"Seed", "Heuristic obj", "With MILP obj", "Gap", "Valid"});
  double total_gap = 0.0;
  int counted = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const model::Assay assay = assays::random_assay(seed * 101, gen);

    core::SynthesisOptions heuristic_only;
    heuristic_only.max_devices = 5;
    heuristic_only.engine.enable_ilp = false;
    heuristic_only.max_resynthesis_iterations = 0;

    core::SynthesisOptions with_ilp = heuristic_only;
    with_ilp.engine.enable_ilp = true;
    with_ilp.engine.ilp_max_ops = 6;
    with_ilp.engine.ilp_max_devices = 6;
    with_ilp.engine.ilp_new_slots = 3;
    with_ilp.engine.milp.time_limit_seconds = 20.0;

    const auto h = core::synthesize(assay, heuristic_only);
    const auto e = core::synthesize(assay, with_ilp);
    const double ho = h.iterations.front().objective.weighted_total;
    const double eo = e.iterations.front().objective.weighted_total;
    const double gap = eo > 0.0 ? (ho - eo) / eo * 100.0 : 0.0;
    total_gap += gap;
    ++counted;
    const bool valid =
        schedule::certify_result(e.result, assay, e.transport).empty() &&
        schedule::certify_result(h.result, assay, h.transport).empty();
    std::ostringstream gap_text;
    gap_text << std::fixed << std::setprecision(2) << gap << '%';
    std::ostringstream ho_text, eo_text;
    ho_text << std::fixed << std::setprecision(1) << ho;
    eo_text << std::fixed << std::setprecision(1) << eo;
    table.add_row({std::to_string(seed), ho_text.str(), eo_text.str(), gap_text.str(),
                   valid ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << std::fixed << std::setprecision(2);
  std::cout << "\nmean gap: " << total_gap / counted
            << "% (>= 0 means the exact engine never loses; the gap is why the"
               " synthesizer runs the MILP wherever it is tractable)\n";
  return 0;
}
