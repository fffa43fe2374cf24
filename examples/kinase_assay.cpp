// Domain example 1: the kinase-activity radioassay of [10] (the paper's
// case 1, Fig. 2). Demonstrates the motivating scenario of the paper's
// introduction: mixing executed *without* a classical mixer (flow-reversal
// through a sieve-valve bead column), and container-agnostic wash / detect
// steps that the component-oriented binding can place on whatever device
// fits. Compares the component-oriented result with the modified
// conventional (exact type-match) method.
#include <iostream>

#include "assays/benchmarks.hpp"
#include "baseline/conventional.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

using namespace cohls;

namespace {

void describe(const char* label, const core::SynthesisReport& report,
              const model::Assay& assay) {
  std::cout << label << ":\n";
  std::cout << "  execution time : " << report.result.total_time(assay) << "\n";
  std::cout << "  devices        : " << report.result.used_device_count() << "\n";
  std::cout << "  paths          : " << report.result.path_count(assay) << "\n";
  std::cout << "  layers         : " << report.result.layers.size() << "\n";
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  std::cout << "  valid          : " << (violations.empty() ? "yes" : "NO") << "\n";
}

}  // namespace

int main() {
  const model::Assay assay = assays::kinase_activity_assay(/*lanes=*/2);
  std::cout << "assay: " << assay.name() << " (" << assay.operation_count()
            << " operations, " << assay.indeterminate_count() << " indeterminate)\n\n";

  core::SynthesisOptions options;
  options.max_devices = 25;

  const auto ours = core::synthesize(assay, options);
  const auto conventional = baseline::synthesize_conventional(assay, options);

  describe("component-oriented (ours)", ours, assay);
  std::cout << '\n';
  describe("modified conventional", conventional, assay);

  // The paper's headline for this case: the component-oriented method needs
  // fewer devices and fewer transportation paths at no time penalty,
  // because container-agnostic operations (wash, elution, neutralization,
  // imaging) re-use devices built for the picky ones.
  std::cout << "\nbinding of the component-oriented solution:\n";
  for (const auto& [op, device] : ours.result.binding()) {
    std::cout << "  " << assay.operation(op).name() << " -> device#" << device << "\n";
  }
  return 0;
}
