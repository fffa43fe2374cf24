// Ablation B: objective weights C_t / C_a / C_pr / C_p ("adjustable weight
// coefficients that can be defined by users"). Three profiles — time-
// dominant, resource-dominant, and path-dominant — show how the synthesis
// trades makespan against device count and channel count.
#include <iostream>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"
#include "util/table.hpp"

using namespace cohls;

int main() {
  std::cout << "=== Ablation B: objective weight profiles ===\n\n";

  struct Profile {
    const char* name;
    double time, area, processing, paths;
  };
  const Profile profiles[] = {
      {"time-dominant", 10.0, 0.5, 0.5, 0.5},
      {"balanced (default)", 1.0, 3.0, 3.0, 15.0},
      {"resource-dominant", 0.2, 10.0, 10.0, 2.0},
      {"path-dominant", 0.2, 0.5, 0.5, 50.0},
  };

  TextTable table({"Case", "Profile", "Exe.Time", "#D.", "#P.", "Valid"});
  const model::Assay cases[] = {
      assays::kinase_activity_assay(),
      assays::gene_expression_assay(),
  };
  int case_number = 0;
  for (const model::Assay& assay : cases) {
    ++case_number;
    for (const Profile& profile : profiles) {
      core::SynthesisOptions options;
      options.max_devices = 25;
      options.costs.set_weights(profile.time, profile.area, profile.processing,
                                profile.paths);
      const auto report = core::synthesize(assay, options);
      const bool valid =
          schedule::certify_result(report.result, assay, report.transport).empty();
      table.add_row({std::to_string(case_number), profile.name,
                     report.result.total_time(assay).to_string(),
                     std::to_string(report.result.used_device_count()),
                     std::to_string(report.result.path_count(assay)),
                     valid ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "\n(expected: time-dominant spends devices to parallelize;"
               " resource-dominant serializes onto few devices;"
               " path-dominant co-locates producer/consumer chains)\n";
  return 0;
}
