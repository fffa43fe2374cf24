// Ablation C: transportation estimation (Sec. 4.1). Compares (i) a flat
// constant with no refinement, (ii) the paper's arithmetic-progression
// refinement, and (iii) a degenerate progression (min == max) that refines
// only same-device transfers to zero. The refinement is where most of
// Table 3's first-iteration improvement comes from.
#include <iostream>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Ablation C: transportation estimation ===\n\n";

  const model::Assay assay = assays::gene_expression_assay();

  struct Variant {
    const char* name;
    Minutes initial;
    schedule::TransportProgression progression;
    int iterations;
  };
  const Variant variants[] = {
      {"no refinement (flat 3m)", 3_min, {3_min, 3_min, 1}, 0},
      {"degenerate progression (3m..3m)", 3_min, {3_min, 3_min, 1}, 2},
      {"paper progression (1m..4m, 4 terms)", 3_min, {1_min, 4_min, 4}, 2},
      {"wide progression (1m..8m, 8 terms)", 3_min, {1_min, 8_min, 8}, 2},
  };

  TextTable table({"Variant", "Exe.Time", "#D.", "#P.", "Valid"});
  for (const Variant& variant : variants) {
    core::SynthesisOptions options;
    options.max_devices = 25;
    options.initial_transport = variant.initial;
    options.progression = variant.progression;
    options.max_resynthesis_iterations = variant.iterations;
    options.resynthesis_improvement_threshold = -1.0;
    const auto report = core::synthesize(assay, options);
    const bool valid =
        schedule::certify_result(report.result, assay, report.transport).empty();
    table.add_row({variant.name, report.result.total_time(assay).to_string(),
                   std::to_string(report.result.used_device_count()),
                   std::to_string(report.result.path_count(assay)),
                   valid ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\n(expected: refinement with a real progression beats the flat"
               " estimate; zeroing same-device transfers alone already helps)\n";
  return 0;
}
