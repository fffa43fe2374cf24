// Domain example 2: single-cell gene expression profiling (the paper's
// case 2, Fig. 1). The assay starts with indeterminate single-cell capture
// operations — a fluorescence check decides at run time whether exactly one
// cell was caught — so the synthesizer produces a *hybrid* schedule: fixed
// sub-schedules per layer, with cyberphysical decisions at layer
// boundaries. This example prints the layer structure and shows how the
// progressive re-synthesis refines the result.
#include <iostream>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

using namespace cohls;

int main() {
  const model::Assay assay = assays::gene_expression_assay(/*cells=*/10);
  std::cout << "assay: " << assay.name() << " (" << assay.operation_count()
            << " operations, " << assay.indeterminate_count() << " indeterminate)\n\n";

  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;

  const core::SynthesisReport report = core::synthesize(assay, options);

  std::cout << "hybrid schedule: " << report.result.layers.size() << " layers\n";
  for (const auto& layer : report.result.layers) {
    int indeterminate = 0;
    for (const auto& item : layer.items) {
      if (assay.operation(item.op).indeterminate()) {
        ++indeterminate;
      }
    }
    std::cout << "  layer " << layer.layer.value() + 1 << ": " << layer.items.size()
              << " ops, makespan " << layer.makespan()
              << (indeterminate > 0
                      ? " + I" + std::to_string(layer.layer.value() + 1) + " (" +
                            std::to_string(indeterminate) + " indeterminate ops)"
                      : "")
              << "\n";
  }

  std::cout << "\nprogressive re-synthesis trace (Table 3 shape):\n";
  for (std::size_t k = 0; k < report.iterations.size(); ++k) {
    const auto& it = report.iterations[k];
    std::cout << "  " << (k == 0 ? "initial" : "iter " + std::to_string(k)) << ": time "
              << it.execution_time << ", devices " << it.device_count << ", paths "
              << it.path_count << ", weighted objective "
              << it.objective.weighted_total << "\n";
  }

  std::cout << "\ntotal execution time: " << report.result.total_time(assay)
            << "  (fixed part + one unknown per capture layer)\n";

  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  std::cout << "schedule valid: " << (violations.empty() ? "yes" : "NO") << "\n";
  return violations.empty() ? 0 : 1;
}
