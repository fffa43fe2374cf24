// cohls_synth — command-line front end of the synthesis flow.
//
//   cohls_synth <assay-file> [options]
//
//   --max-devices N        |D|, the device budget (default 25)
//   --threshold N          layer threshold t (default 10)
//   --transport N          initial transport constant, minutes (default 5)
//   --conventional         use the modified conventional baseline
//   --layout               refine transport from a placed layout
//   --no-resynthesis       stop after the initial pass
//   --gantt / --csv / --dot / --placement
//                          extra output sections
//   --simulate SEED        simulate one cyberphysical run
//   --inject-faults FILE   replay the schedule against a fault plan (see
//                          src/sim/faults.hpp for the plan format) and, if
//                          the run breaks, drive the re-entrant recovery
//                          mission (replay → recover → re-certify per fault)
//                          on the surviving devices
//   --recover-rounds N     faults the recovery mission may survive before
//                          freezing with COHLS-E305 (default 3)
//   --recover-budget S     per-round recovery wall budget in seconds; a
//                          round that blows it degrades to the heuristic-
//                          only continuation instead of failing (default 0
//                          = unbudgeted)
//   --deadline S           abort the synthesis after S seconds
//   --lint                 run the static linter first; lint errors abort
//                          before any solver runs (exit 7)
//   --lint-only            lint and exit (0 clean, 7 findings); never solves
//   --Werror               lint warnings are treated as errors
//   --diag-format=FMT      diagnostics as clang-style "text" (default) or
//                          as a "json" document
//
// The assay file uses the format of src/io/assay_text.hpp; see
// examples/protocols/*.assay for samples.
//
// Numeric arguments must be whole tokens within range ("12x" or an int
// overflow is a usage error).
//
// Exit codes distinguish failure classes for scripting:
//   0 success        1 cannot open/write a file   2 usage error
//   3 parse error    4 result failed certification   5 infeasible
//   6 cancelled (deadline exceeded)   7 lint failure
//   8 run failed (simulated run broke and was not recovered)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/linter.hpp"
#include "baseline/conventional.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "io/assay_text.hpp"
#include "io/export.hpp"
#include "io/result_text.hpp"
#include "layout/placement.hpp"
#include "schedule/validate.hpp"
#include "sim/runtime.hpp"
#include "util/cancellation.hpp"
#include "util/lexer.hpp"

namespace {

using namespace cohls;

struct CliOptions {
  std::string assay_path;
  core::SynthesisOptions synthesis;
  bool conventional = false;
  bool gantt = false;
  bool csv = false;
  bool dot = false;
  bool placement = false;
  bool simulate = false;
  std::uint64_t simulate_seed = 1;
  std::string fault_plan_path;
  int recover_rounds = 3;
  double recover_budget_seconds = 0.0;
  std::string save_result_path;
  double deadline_seconds = 0.0;
  bool lint = false;
  bool lint_only = false;
  bool warnings_as_errors = false;
  diag::Format diag_format = diag::Format::Text;
};

enum ExitCode : int {
  kExitOk = 0,
  kExitIo = 1,
  kExitUsage = 2,
  kExitParse = 3,
  kExitInvalid = 4,
  kExitInfeasible = 5,
  kExitCancelled = 6,
  kExitLint = 7,
  kExitRunFailed = 8,
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <assay-file> [--max-devices N] [--threshold N] [--transport N]"
               " [--conventional] [--layout] [--no-resynthesis]"
               " [--gantt] [--csv] [--dot] [--placement] [--simulate SEED]"
               " [--inject-faults FILE] [--recover-rounds N] [--recover-budget S]"
               " [--save-result FILE] [--deadline S]"
               " [--lint] [--lint-only] [--Werror] [--diag-format=text|json]\n";
  std::exit(kExitUsage);
}

int numeric_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    usage(argv[0]);
  }
  try {
    return lex::to_int<std::int32_t>(argv[++i]);
  } catch (const lex::Error& e) {
    std::cerr << e.what() << "\n";
    usage(argv[0]);
  }
}

double seconds_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    usage(argv[0]);
  }
  try {
    return lex::to_double(argv[++i]);
  } catch (const lex::Error& e) {
    std::cerr << e.what() << "\n";
    usage(argv[0]);
  }
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-devices") {
      cli.synthesis.max_devices = numeric_arg(argc, argv, i);
    } else if (arg == "--threshold") {
      cli.synthesis.layering.indeterminate_threshold = numeric_arg(argc, argv, i);
    } else if (arg == "--transport") {
      cli.synthesis.initial_transport = Minutes{numeric_arg(argc, argv, i)};
    } else if (arg == "--conventional") {
      cli.conventional = true;
    } else if (arg == "--layout") {
      cli.synthesis.transport_refinement = core::TransportRefinement::Layout;
    } else if (arg == "--no-resynthesis") {
      cli.synthesis.max_resynthesis_iterations = 0;
    } else if (arg == "--gantt") {
      cli.gantt = true;
    } else if (arg == "--csv") {
      cli.csv = true;
    } else if (arg == "--dot") {
      cli.dot = true;
    } else if (arg == "--placement") {
      cli.placement = true;
    } else if (arg == "--simulate") {
      cli.simulate = true;
      cli.simulate_seed = static_cast<std::uint64_t>(numeric_arg(argc, argv, i));
    } else if (arg == "--inject-faults") {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      cli.fault_plan_path = argv[++i];
    } else if (arg == "--recover-rounds") {
      cli.recover_rounds = numeric_arg(argc, argv, i);
    } else if (arg == "--recover-budget") {
      cli.recover_budget_seconds = seconds_arg(argc, argv, i);
    } else if (arg == "--save-result") {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      cli.save_result_path = argv[++i];
    } else if (arg == "--deadline") {
      cli.deadline_seconds = seconds_arg(argc, argv, i);
    } else if (arg == "--lint") {
      cli.lint = true;
    } else if (arg == "--lint-only") {
      cli.lint_only = true;
    } else if (arg == "--Werror") {
      cli.warnings_as_errors = true;
    } else if (arg == "--diag-format" || arg.rfind("--diag-format=", 0) == 0) {
      std::string value;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        usage(argv[0]);
      }
      const auto format = diag::parse_format(value);
      if (!format.has_value()) {
        std::cerr << "unknown diagnostics format: " << value << "\n";
        usage(argv[0]);
      }
      cli.diag_format = *format;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
    } else if (cli.assay_path.empty()) {
      cli.assay_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (cli.assay_path.empty()) {
    usage(argv[0]);
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);

  std::ifstream file(cli.assay_path);
  if (!file) {
    std::cerr << "cannot open " << cli.assay_path << "\n";
    return kExitIo;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();

  try {
    io::AssaySource source = io::parse_assay_source(buffer.str());
    if (cli.lint || cli.lint_only) {
      const analysis::AnalysisOptions lint_options{
          cli.synthesis.max_devices,
          cli.synthesis.layering.indeterminate_threshold};
      const analysis::LintReport lint = analysis::lint_assay(source, lint_options);
      if (!lint.diagnostics.empty() || cli.diag_format == diag::Format::Json) {
        std::cout << diag::render(lint.diagnostics, cli.diag_format,
                                  cli.assay_path);
      }
      if (!lint.clean(cli.warnings_as_errors)) {
        return kExitLint;
      }
      if (cli.lint_only) {
        if (cli.diag_format == diag::Format::Text) {
          std::cout << "lint: clean\n";
        }
        return kExitOk;
      }
    }

    const model::Assay assay = std::move(source).build();
    std::cout << "assay: " << assay.name() << " (" << assay.operation_count()
              << " operations, " << assay.indeterminate_count() << " indeterminate)\n";

    CancellationSource deadline_source;
    core::SynthesisOptions synthesis = cli.synthesis;
    if (cli.deadline_seconds > 0.0) {
      synthesis.cancel = deadline_source.token_with_deadline(cli.deadline_seconds);
    }

    const core::SynthesisReport report =
        cli.conventional ? baseline::synthesize_conventional(assay, synthesis)
                         : core::synthesize(assay, synthesis);

    std::cout << "method: " << (cli.conventional ? "modified conventional"
                                                 : "component-oriented")
              << "\n";
    std::cout << "execution time: " << report.result.total_time(assay) << "\n";
    std::cout << "devices: " << report.result.used_device_count() << " of "
              << cli.synthesis.max_devices << " allowed\n";
    std::cout << "paths: " << report.result.path_count(assay) << "\n";
    std::cout << "layers: " << report.result.layers.size() << "\n";
    std::cout << "re-synthesis iterations: " << report.iterations.size() - 1 << "\n";

    const auto certification =
        schedule::certify_result(report.result, assay, report.transport);
    std::cout << "valid: " << (certification.empty() ? "yes" : "NO") << "\n";
    if (!certification.empty()) {
      std::cout << diag::render(certification, cli.diag_format, "");
    }

    if (cli.gantt) {
      std::cout << "\n" << io::to_gantt(report.result, assay);
    }
    if (cli.csv) {
      std::cout << "\n" << io::to_csv(report.result, assay);
    }
    if (cli.dot) {
      std::cout << "\n" << io::to_dot(report.result, assay);
    }
    if (cli.placement) {
      const auto placement = layout::place_devices(report.result, assay);
      std::cout << "\nplacement (" << placement.grid_width() << "x"
                << placement.grid_width() << " grid):\n"
                << placement.to_ascii();
    }
    if (!cli.save_result_path.empty()) {
      std::ofstream out(cli.save_result_path);
      if (!out) {
        std::cerr << "cannot write " << cli.save_result_path << "\n";
        return kExitIo;
      }
      out << io::to_text(report.result, assay);
      std::cout << "result saved to " << cli.save_result_path << "\n";
    }
    if (cli.simulate || !cli.fault_plan_path.empty()) {
      sim::RuntimeOptions options;
      options.seed = cli.simulate_seed;
      if (!cli.fault_plan_path.empty()) {
        std::ifstream plan_file(cli.fault_plan_path);
        if (!plan_file) {
          std::cerr << "cannot open " << cli.fault_plan_path << "\n";
          return kExitIo;
        }
        std::ostringstream plan_buffer;
        plan_buffer << plan_file.rdbuf();
        options.faults = sim::parse_fault_plan(plan_buffer.str());
      }
      const sim::RunTrace trace = sim::simulate_run(report.result, assay, options);
      std::cout << "\nsimulated run (seed " << cli.simulate_seed
                << "): " << sim::to_string(trace.outcome) << "\n";
      if (trace.ok()) {
        std::cout << "completed at " << trace.completed_at << " (planned fixed "
                  << trace.planned_fixed << ", overrun " << trace.overrun()
                  << ")\n";
      } else {
        std::cout << "run broke at minute " << trace.failure->at.count()
                  << " in layer " << trace.failure->layer << ": "
                  << trace.failure->detail << "\n";
        std::cout << "completed operations: " << trace.completed.size()
                  << ", in flight: " << trace.in_flight.size()
                  << ", lost: " << trace.lost.size() << "\n";
        for (const sim::InFlightOperation& running : trace.in_flight) {
          std::cout << "  in flight: operation " << running.op << " on device "
                    << running.device << " (" << running.elapsed
                    << " elapsed, " << running.remaining << " remaining)\n";
        }
        if (cli.fault_plan_path.empty()) {
          // Plain --simulate has no recovery stage: a broken run is a
          // nonzero exit, never a fabricated success.
          return kExitRunFailed;
        }
        // Re-entrant recovery mission: iterate replay → recover →
        // re-certify, surviving up to --recover-rounds faults with credit
        // for work already done carried across rounds.
        core::MissionOptions mission;
        mission.synthesis = synthesis;
        mission.max_rounds = std::max(1, cli.recover_rounds);
        mission.round_budget_seconds = cli.recover_budget_seconds;
        const core::MissionOutcome outcome =
            core::run_mission(assay, report.result, options, mission);
        for (std::size_t round = 0; round < outcome.round_log.size(); ++round) {
          const core::MissionRound& entry = outcome.round_log[round];
          std::cout << "recovery round " << (round + 1) << ": break at minute "
                    << entry.break_at.count() << " ("
                    << sim::to_string(entry.outcome);
          if (entry.failed_device.valid()) {
            std::cout << ", device " << entry.failed_device;
          }
          std::cout << "), " << entry.pinned_ops << " pinned in flight, credit "
                    << entry.credit << (entry.degraded ? ", DEGRADED" : "")
                    << (entry.recovered ? "" : ", FAILED") << "\n";
        }
        if (!outcome.recovered) {
          std::cout << "recovery: FAILED after " << outcome.rounds
                    << " certified round(s)\n";
          std::cout << diag::render(outcome.diagnostics, cli.diag_format, "");
          return kExitRunFailed;
        }
        std::cout << "recovery: recovered after " << outcome.rounds
                  << " fault(s); mission completed at minute "
                  << outcome.completed_at.count() << " with "
                  << outcome.credit_carried << " credit carried"
                  << (outcome.degraded ? " (degraded continuation)" : "")
                  << "\n";
      }
    }
    return certification.empty() ? kExitOk : kExitInvalid;
  } catch (const io::ParseError& e) {
    if (cli.lint || cli.lint_only) {
      // Surface lexical failures through the diagnostics pipeline so JSON
      // consumers always get a document.
      std::cout << diag::render({analysis::parse_error_diagnostic(e)}, cli.diag_format,
                                cli.assay_path);
      return kExitLint;
    }
    std::cerr << "parse error: " << e.what() << "\n";
    return kExitParse;
  } catch (const sim::FaultPlanError& e) {
    std::cerr << "fault plan error at " << cli.fault_plan_path << ":" << e.line()
              << ": " << e.what() << "\n";
    return kExitParse;
  } catch (const CancelledError& e) {
    std::cerr << "cancelled: " << e.what() << "\n";
    return kExitCancelled;
  } catch (const InfeasibleError& e) {
    std::cerr << "infeasible: " << e.what() << "\n";
    return kExitInfeasible;
  }
}
