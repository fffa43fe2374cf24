// Ablation E: rank-based vs layout-based transportation refinement.
// The paper refines transport times by ranking paths and mapping ranks onto
// a user-given arithmetic progression (Sec. 4.1); this repo additionally
// implements the physical story behind that rule — place the devices on a
// grid (usage-weighted annealing) and charge Manhattan channel lengths.
// This bench compares both refinements on the hybrid cases and prints the
// final placement of the layout run.
#include <iostream>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "layout/placement.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Ablation E: transport refinement — progression vs layout ===\n\n";

  TextTable table({"Case", "Refinement", "Exe.Time", "#D.", "#P.", "Valid"});
  const model::Assay cases[] = {
      assays::gene_expression_assay(),
      assays::rt_qpcr_assay(),
  };
  int case_number = 1;
  core::SynthesisReport last_layout_report;
  const model::Assay* last_assay = nullptr;
  for (const model::Assay& assay : cases) {
    ++case_number;
    for (const auto refinement :
         {core::TransportRefinement::Progression, core::TransportRefinement::Layout}) {
      core::SynthesisOptions options;
      options.max_devices = 25;
      options.layering.indeterminate_threshold = 10;
      options.transport_refinement = refinement;
      options.resynthesis_improvement_threshold = -1.0;
      options.max_resynthesis_iterations = 2;
      const auto report = core::synthesize(assay, options);
      const bool valid =
          schedule::certify_result(report.result, assay, report.transport).empty();
      table.add_row({std::to_string(case_number),
                     refinement == core::TransportRefinement::Layout ? "layout"
                                                                     : "progression",
                     report.result.total_time(assay).to_string(),
                     std::to_string(report.result.used_device_count()),
                     std::to_string(report.result.path_count(assay)),
                     valid ? "yes" : "NO"});
      if (refinement == core::TransportRefinement::Layout) {
        last_layout_report = report;
        last_assay = &assay;
      }
    }
  }
  table.print(std::cout);

  if (last_assay != nullptr) {
    const auto placement =
        layout::place_devices(last_layout_report.result, *last_assay);
    std::cout << "\nfinal device placement of case " << case_number
              << " (usage-weighted annealed grid):\n"
              << placement.to_ascii();
    std::cout << "wirelength: "
              << placement.wirelength(
                     layout::path_usage(last_layout_report.result, *last_assay))
              << " cell-transfers\n";
  }
  std::cout << "\n(expected: both refinements beat the flat first pass; the layout"
               " variant grounds the progression's 'frequent paths are shorter'"
               " assumption in an actual placement)\n";
  return 0;
}
