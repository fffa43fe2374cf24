// Ablation F: fixed-time-slot scheduling. The paper's introduction argues
// that "the fixed-time-slot scheduling methods are insufficient to solve
// the new design challenges"; this bench quantifies the slot tax by sweeping
// the slot length of the conventional baseline (0 = continuous starts) on
// the three benchmark assays.
#include <iostream>

#include "assays/benchmarks.hpp"
#include "baseline/conventional.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Ablation F: the fixed-time-slot tax (conventional baseline) ===\n\n";

  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;

  TextTable table({"Case", "Slot", "Exe.Time", "#D.", "#P.", "Valid"});
  const model::Assay cases[] = {
      assays::kinase_activity_assay(),
      assays::gene_expression_assay(),
      assays::rt_qpcr_assay(),
  };
  int case_number = 0;
  for (const model::Assay& assay : cases) {
    ++case_number;
    for (const std::int64_t slot : {0, 5, 10, 20}) {
      const auto report =
          baseline::synthesize_conventional(assay, options, Minutes{slot});
      const bool valid =
          schedule::certify_result(report.result, assay, report.transport).empty();
      table.add_row({std::to_string(case_number),
                     slot == 0 ? "continuous" : std::to_string(slot) + "m",
                     report.result.total_time(assay).to_string(),
                     std::to_string(report.result.used_device_count()),
                     std::to_string(report.result.path_count(assay)),
                     valid ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "\n(expected: coarser slots only ever delay starts, so execution time"
               " grows monotonically with the slot length)\n";
  return 0;
}
