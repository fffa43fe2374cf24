// Reproduces Table 2: synthesis results for the three bioassays, comparing
// the modified conventional method (component-requirement classes, exact
// type matching) with the component-oriented method, under the paper's
// setup: |D| = 25, layer threshold t = 10. Columns match the paper:
// execution time (with symbolic I_k overruns), #devices, #paths, runtime.
//
// Expected shape (paper values in EXPERIMENTS.md): our method matches or
// beats the conventional one in execution time with no more devices and
// fewer transportation paths on every case.
#include <chrono>
#include <iostream>
#include <string>

#include "assays/benchmarks.hpp"
#include "baseline/conventional.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

using namespace cohls;

namespace {

struct RowData {
  std::string time;
  int devices;
  int paths;
  std::string runtime;
  bool valid;
};

RowData run(const model::Assay& assay, const core::SynthesisOptions& options,
            bool conventional) {
  const auto start = std::chrono::steady_clock::now();
  const core::SynthesisReport report =
      conventional ? baseline::synthesize_conventional(assay, options)
                   : core::synthesize(assay, options);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  RowData row;
  row.time = report.result.total_time(assay).to_string();
  row.devices = report.result.used_device_count();
  row.paths = report.result.path_count(assay);
  row.runtime = format_wallclock(elapsed.count());
  row.valid = schedule::certify_result(report.result, assay, report.transport).empty();
  return row;
}

}  // namespace

int main() {
  std::cout << "=== Table 2: Synthesis Results for Bioassays ===\n";
  std::cout << "(|D| = 25, layer threshold t = 10; Conv. = modified conventional"
               " method, Our = component-oriented method)\n\n";

  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;

  const model::Assay cases[] = {
      assays::kinase_activity_assay(),
      assays::gene_expression_assay(),
      assays::rt_qpcr_assay(),
  };

  TextTable table({"Case", "Testcase", "#Op", "#Ind.Op", "Method", "Exe.Time", "#D.",
                   "#P.", "Runtime", "Valid"});
  int case_number = 0;
  for (const model::Assay& assay : cases) {
    ++case_number;
    for (const bool conventional : {true, false}) {
      const RowData row = run(assay, options, conventional);
      table.add_row({std::to_string(case_number), assay.name(),
                     std::to_string(assay.operation_count()),
                     std::to_string(assay.indeterminate_count()),
                     conventional ? "Conv." : "Our", row.time,
                     std::to_string(row.devices), std::to_string(row.paths), row.runtime,
                     row.valid ? "yes" : "NO"});
    }
  }
  table.print(std::cout);

  std::cout << "\npaper reference (same layout):\n";
  std::cout << "  case 1 [10]: Conv. 225m 3 3 | Our 220m 2 2\n";
  std::cout << "  case 2 [7] : Conv. 277m+I1 24 82 | Our 244m+I1 21 33\n";
  std::cout << "  case 3 [17]: Conv. 603m+I1+I2 24 95 | Our 492m+I1+I2 24 85\n";
  return 0;
}
