// Ablation A: the layer threshold `t` (maximum indeterminate operations per
// layer). Small t means more layers (more cyberphysical checkpoints, less
// parallel capture); large t means fewer layers but more devices reserved
// in parallel at each layer's end. Sweeps t over the hybrid cases.
#include <algorithm>
#include <iostream>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Ablation A: layer threshold t ===\n\n";

  TextTable table({"Case", "t", "Layers", "Exe.Time", "#D.", "#P.", "MaxStorage",
                   "Valid"});
  const model::Assay cases[] = {
      assays::gene_expression_assay(),
      assays::rt_qpcr_assay(),
  };
  int case_number = 1;
  for (const model::Assay& assay : cases) {
    ++case_number;
    for (const int t : {2, 5, 10, 20}) {
      core::SynthesisOptions options;
      options.max_devices = 25;
      options.layering.indeterminate_threshold = t;
      const auto report = core::synthesize(assay, options);
      const bool valid =
          schedule::certify_result(report.result, assay, report.transport).empty();
      const auto storage = core::boundary_storage(report.plan, assay);
      const int max_storage =
          storage.empty() ? 0 : *std::max_element(storage.begin(), storage.end());
      table.add_row({std::to_string(case_number), std::to_string(t),
                     std::to_string(report.result.layers.size()),
                     report.result.total_time(assay).to_string(),
                     std::to_string(report.result.used_device_count()),
                     std::to_string(report.result.path_count(assay)),
                     std::to_string(max_storage), valid ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "\n(expected: layer count falls as t grows; each layer boundary is"
               " one cyberphysical decision point)\n";
  return 0;
}
