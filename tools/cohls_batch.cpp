// cohls_batch — batch synthesis over a manifest of assay files.
//
//   cohls_batch <manifest> [options]
//
//   --jobs N               worker threads (default 1)
//   --max-devices N        |D|, the device budget per assay (default 25)
//   --threshold N          layer threshold t (default 10)
//   --transport N          initial transport constant, minutes (default 5)
//   --conventional         use the modified conventional baseline
//   --deadline S           per-job wall-clock budget in seconds (default none)
//   --cache-capacity N     layer-solution cache entries (default 4096; 0 off)
//   --cache-shards N       lock shards inside the layer cache (default 16;
//                          contention knob only — results and stats are
//                          identical for any value)
//   --no-cache             disable the layer-solution cache
//   --stable-json          zero the wall_seconds timing fields in JSON
//                          output (--results-json and --diag-format=json),
//                          making the documents byte-identical across
//                          repeat runs, shard layouts and --jobs values
//   --verify-cache         check every cache hit against a fresh solve
//   --repeat N             run the whole manifest N times (cache warm-up demo)
//   --stall S              watchdog: downgrade a synthesis stalled past S
//                          seconds to the heuristic (flagged "degraded")
//   --inject-faults FILE   replay every certified schedule against this
//                          fault plan; broken runs go through degraded-mode
//                          recovery and report run-failed when unrecoverable
//   --simulate-seed N      seed of the fault-injection replay (default 1)
//   --fleet N              Monte-Carlo fleet: replay every certified
//                          schedule N times with per-run derived seeds and
//                          reduce into MTTF, recovery success rate, and a
//                          completion-time histogram (reported in the
//                          results JSON under "fleet")
//   --hazard SPEC          sample per-device failure times into every fleet
//                          run; SPEC is ';'-separated clauses of
//                          "[target=]exp:scale" or
//                          "[target=]weibull:scale,shape" where target is an
//                          accessory name or "default" (e.g.
//                          "exp:5000; heating-pad=weibull:2000,1.5")
//   --fleet-seed N         fleet master seed (default 1); run r derives its
//                          streams from (seed, r), so summaries are
//                          bit-identical for any --jobs value
//   --fleet-recover        probe degraded-mode recovery on every broken
//                          fleet run (reports the recovery success rate)
//   --recover-rounds N     drive broken fault-injection replays (and, with
//                          --fleet-recover, broken fleet runs) through the
//                          re-entrant mission loop for up to N recovery
//                          rounds before freezing with COHLS-E305
//                          (default 1 = single-fault recovery)
//   --recover-budget S     per-round recovery wall budget in seconds; a
//                          round that blows it degrades to a heuristic-only
//                          continuation (flagged "degraded") instead of
//                          failing the job (default 0 = no budget); the
//                          --deadline still cancels the job
//   --save-results DIR     write each result as DIR/<name>.result
//   --results-json FILE    write the per-job results document (same content
//                          as --diag-format=json) to FILE
//   --metrics-json FILE    dump the metrics registry as JSON ("-" = stdout)
//   --no-lint              skip the pre-solve static linter (on by default;
//                          jobs with lint errors report lint_failed and
//                          never reach the solver)
//   --lint-only            lint every assay and stop; no solver runs
//   --Werror               lint warnings also fail a job
//   --diag-format=FMT      "text" (default; table + per-job detail lines) or
//                          "json" (one document per round, with per-job
//                          diagnostics arrays, instead of the table)
//
// The manifest lists one assay file per line ('#' comments allowed);
// relative paths resolve against the manifest's directory. Numeric arguments
// must be whole tokens within range ("12x" or an int overflow is a usage
// error). Exit status is 0 when every job succeeded, 1 when any failed, 2 on
// usage errors, 130 on SIGINT.
//
// All file outputs (--save-results, --results-json, --metrics-json) are
// written atomically: content goes to a temp file that is renamed into
// place, so a crash or interrupt never leaves a half-written artifact. On
// SIGINT the engine stops, the completed rows are flushed as a parsable
// results document (interrupted jobs report "cancelled"), and the exit
// status is 130.
//
// Results are bit-identical for any --jobs value: each layer MILP is
// budgeted in nodes and simplex pivots, not wall time, and the shared layer
// cache only returns solutions the solver would have produced itself.
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "diag/diagnostic.hpp"
#include "engine/batch.hpp"
#include "util/lexer.hpp"
#include "util/table.hpp"

namespace {

using namespace cohls;

struct CliOptions {
  std::string manifest_path;
  core::SynthesisOptions synthesis;
  engine::BatchOptions batch;
  bool conventional = false;
  double deadline_seconds = 0.0;
  int repeat = 1;
  std::string save_results_dir;
  std::string results_json_path;
  std::string metrics_json_path;
  std::string fault_plan_path;
  std::uint64_t simulate_seed = 1;
  int fleet_runs = 0;
  std::string hazard_spec;
  std::uint64_t fleet_seed = 1;
  bool fleet_recover = false;
  int recover_rounds = 1;
  double recover_budget_seconds = 0.0;
  diag::Format diag_format = diag::Format::Text;
  bool stable_json = false;
};

/// Set by the SIGINT handler; everything non-signal-safe (engine.stop(),
/// flushing results) happens on ordinary threads that poll this flag.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_sigint(int) { g_interrupted = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <manifest> [--jobs N] [--max-devices N]"
               " [--threshold N]"
               " [--transport N] [--conventional] [--deadline S]"
               " [--cache-capacity N] [--cache-shards N] [--no-cache]"
               " [--verify-cache] [--stable-json]"
               " [--repeat N] [--stall S] [--inject-faults FILE]"
               " [--simulate-seed N] [--fleet N] [--hazard SPEC]"
               " [--fleet-seed N] [--fleet-recover]"
               " [--recover-rounds N] [--recover-budget S]"
               " [--save-results DIR] [--results-json FILE]"
               " [--metrics-json FILE] [--no-lint] [--lint-only] [--Werror]"
               " [--diag-format=text|json]\n";
  std::exit(2);
}

std::string string_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    usage(argv[0]);
  }
  return argv[++i];
}

int numeric_arg(int argc, char** argv, int& i) {
  try {
    return lex::to_int<std::int32_t>(string_arg(argc, argv, i));
  } catch (const lex::Error& e) {
    std::cerr << e.what() << "\n";
    usage(argv[0]);
  }
}

double seconds_arg(int argc, char** argv, int& i) {
  try {
    return lex::to_double(string_arg(argc, argv, i));
  } catch (const lex::Error& e) {
    std::cerr << e.what() << "\n";
    usage(argv[0]);
  }
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs") {
      cli.batch.jobs = numeric_arg(argc, argv, i);
    } else if (arg == "--max-devices") {
      cli.synthesis.max_devices = numeric_arg(argc, argv, i);
    } else if (arg == "--threshold") {
      cli.synthesis.layering.indeterminate_threshold = numeric_arg(argc, argv, i);
    } else if (arg == "--transport") {
      cli.synthesis.initial_transport = Minutes{numeric_arg(argc, argv, i)};
    } else if (arg == "--conventional") {
      cli.conventional = true;
    } else if (arg == "--deadline") {
      cli.deadline_seconds = seconds_arg(argc, argv, i);
    } else if (arg == "--cache-capacity") {
      cli.batch.cache_capacity =
          static_cast<std::size_t>(numeric_arg(argc, argv, i));
    } else if (arg == "--cache-shards") {
      cli.batch.cache_shards = numeric_arg(argc, argv, i);
    } else if (arg == "--stable-json") {
      cli.stable_json = true;
    } else if (arg == "--no-cache") {
      cli.batch.cache_capacity = 0;
    } else if (arg == "--verify-cache") {
      cli.batch.verify_cache_hits = true;
    } else if (arg == "--repeat") {
      cli.repeat = numeric_arg(argc, argv, i);
    } else if (arg == "--stall") {
      cli.batch.stall_seconds = seconds_arg(argc, argv, i);
    } else if (arg == "--inject-faults") {
      cli.fault_plan_path = string_arg(argc, argv, i);
    } else if (arg == "--simulate-seed") {
      cli.simulate_seed = static_cast<std::uint64_t>(numeric_arg(argc, argv, i));
    } else if (arg == "--fleet") {
      cli.fleet_runs = numeric_arg(argc, argv, i);
    } else if (arg == "--hazard") {
      cli.hazard_spec = string_arg(argc, argv, i);
    } else if (arg == "--fleet-seed") {
      cli.fleet_seed = static_cast<std::uint64_t>(numeric_arg(argc, argv, i));
    } else if (arg == "--fleet-recover") {
      cli.fleet_recover = true;
    } else if (arg == "--recover-rounds") {
      cli.recover_rounds = numeric_arg(argc, argv, i);
    } else if (arg == "--recover-budget") {
      cli.recover_budget_seconds = seconds_arg(argc, argv, i);
    } else if (arg == "--save-results") {
      cli.save_results_dir = string_arg(argc, argv, i);
    } else if (arg == "--results-json") {
      cli.results_json_path = string_arg(argc, argv, i);
    } else if (arg == "--metrics-json") {
      cli.metrics_json_path = string_arg(argc, argv, i);
    } else if (arg == "--no-lint") {
      cli.batch.lint = false;
    } else if (arg == "--lint-only") {
      cli.batch.lint_only = true;
    } else if (arg == "--Werror") {
      cli.batch.warnings_as_errors = true;
    } else if (arg == "--diag-format" || arg.rfind("--diag-format=", 0) == 0) {
      std::string value;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else {
        value = string_arg(argc, argv, i);
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
    } else if (cli.manifest_path.empty()) {
      cli.manifest_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (cli.manifest_path.empty() || cli.repeat < 1) {
    usage(argv[0]);
  }
  return cli;
}

std::string format_seconds(double seconds) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << seconds;
  return out.str();
}

/// "examples/protocols/rt_qpcr.assay" -> "rt_qpcr"
std::string result_file_stem(const std::string& name) {
  return std::filesystem::path(name).stem().string();
}

/// Crash-safe file write: content lands in a sibling temp file that is
/// renamed into place. Readers never observe a half-written artifact.
bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    out << content;
    out.flush();
    if (!out) {
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);

  std::ifstream file(cli.manifest_path);
  if (!file) {
    std::cerr << "cannot open " << cli.manifest_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string base_dir =
      std::filesystem::path(cli.manifest_path).parent_path().string();

  std::optional<std::string> fault_plan;
  if (!cli.fault_plan_path.empty()) {
    std::ifstream plan_file(cli.fault_plan_path);
    if (!plan_file) {
      std::cerr << "cannot open " << cli.fault_plan_path << "\n";
      return 1;
    }
    std::ostringstream plan_buffer;
    plan_buffer << plan_file.rdbuf();
    fault_plan = plan_buffer.str();
  }

  std::vector<engine::BatchJob> jobs =
      engine::jobs_from_manifest(buffer.str(), base_dir, cli.synthesis);
  for (engine::BatchJob& job : jobs) {
    job.conventional = cli.conventional;
    job.deadline_seconds = cli.deadline_seconds;
    job.fault_plan = fault_plan;
    job.simulate_seed = cli.simulate_seed;
    job.fleet_runs = cli.fleet_runs;
    job.hazard_spec = cli.hazard_spec;
    job.fleet_seed = cli.fleet_seed;
    job.fleet_recover = cli.fleet_recover;
    job.recover_rounds = cli.recover_rounds;
    job.recover_budget_seconds = cli.recover_budget_seconds;
  }
  if (jobs.empty()) {
    std::cerr << "manifest is empty: " << cli.manifest_path << "\n";
    return 1;
  }

  engine::BatchEngine batch(cli.batch);

  // SIGINT: the handler only flips a flag; this watcher does the actual
  // (non-signal-safe) engine stop. In-flight jobs come back "cancelled",
  // the rows already computed are flushed below, and we exit 130.
  std::signal(SIGINT, handle_sigint);
  std::atomic<bool> watcher_done{false};
  std::thread watcher([&batch, &watcher_done] {
    while (!watcher_done.load(std::memory_order_relaxed)) {
      if (g_interrupted != 0) {
        batch.stop();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const auto stop_watcher = [&watcher_done, &watcher] {
    watcher_done.store(true, std::memory_order_relaxed);
    watcher.join();
  };

  bool all_ok = true;
  for (int round = 0; round < cli.repeat && g_interrupted == 0; ++round) {
    const std::vector<engine::BatchResult> rows = batch.run(jobs);

    for (const engine::BatchResult& row : rows) {
      all_ok = all_ok && row.status == engine::JobStatus::Ok;
    }
    if (cli.repeat > 1) {
      std::cout << "round " << round + 1 << " of " << cli.repeat << "\n";
    }
    if (cli.diag_format == diag::Format::Json) {
      std::cout << engine::results_json(rows, cli.stable_json) << "\n";
    } else {
      TextTable table({"assay", "status", "time", "devices", "paths", "layers",
                       "iters", "objective", "wall s"});
      for (const engine::BatchResult& row : rows) {
        std::ostringstream objective;
        objective.precision(1);
        objective << std::fixed << row.summary.objective;
        table.add_row({row.name, engine::to_string(row.status),
                       row.summary.execution_time,
                       std::to_string(row.summary.devices),
                       std::to_string(row.summary.paths),
                       std::to_string(row.summary.layers),
                       std::to_string(row.summary.resynthesis_iterations),
                       objective.str(), format_seconds(row.wall_seconds)});
        if (row.status != engine::JobStatus::Ok) {
          std::cerr << row.name << ": " << engine::to_string(row.status) << ": "
                    << row.detail << "\n";
        }
        if (row.degraded) {
          std::cerr << row.name
                    << ": degraded: stalled synthesis fell back to the"
                       " list-scheduling heuristic\n";
        }
        if (row.fleet.has_value()) {
          std::ostringstream fleet_line;
          fleet_line.precision(3);
          fleet_line << row.name << ": fleet " << row.fleet->runs << " runs, "
                     << row.fleet->completed << " completed, "
                     << row.fleet->device_failed << " device-failed, "
                     << row.fleet->attempts_exhausted << " exhausted";
          if (row.fleet->device_failed + row.fleet->attempts_exhausted > 0) {
            fleet_line << ", MTTF " << row.fleet->mttf_minutes << "m";
          }
          if (row.fleet->recovery_attempts > 0) {
            fleet_line << ", recovery rate "
                       << row.fleet->recovery_success_rate;
          }
          if (row.fleet->completed > 0) {
            fleet_line << ", mean completion "
                       << row.fleet->mean_completion_minutes << "m";
          }
          std::cout << fleet_line.str() << "\n";
        }
        if (row.recovery_attempted) {
          std::cerr << row.name << ": fault replay " << row.run_outcome
                    << ", recovery "
                    << (row.recovered ? "produced a certified continuation"
                                      : "failed")
                    << "\n";
        }
        if (!row.diagnostics.empty()) {
          std::cerr << diag::render_text(row.diagnostics, row.name);
        }
      }
      table.print(std::cout);
      std::cout << "\n";
    }

    if (!cli.results_json_path.empty()) {
      // Rewritten every round (and after an interrupt): always a complete,
      // parsable document — interrupted jobs appear as "cancelled".
      if (!write_file_atomic(cli.results_json_path,
                             engine::results_json(rows, cli.stable_json) +
                                 "\n")) {
        std::cerr << "cannot write " << cli.results_json_path << "\n";
        stop_watcher();
        return 1;
      }
    }

    if (!cli.save_results_dir.empty() && round == 0) {
      std::filesystem::create_directories(cli.save_results_dir);
      for (const engine::BatchResult& row : rows) {
        if (row.result_text.empty()) {
          continue;
        }
        const std::string path =
            cli.save_results_dir + "/" + result_file_stem(row.name) + ".result";
        if (!write_file_atomic(path, row.result_text)) {
          std::cerr << "cannot write " << path << "\n";
          stop_watcher();
          return 1;
        }
      }
    }
  }
  stop_watcher();

  std::cout << batch.report();
  if (!cli.metrics_json_path.empty()) {
    if (cli.metrics_json_path == "-") {
      std::cout << batch.metrics_json() << "\n";
    } else if (!write_file_atomic(cli.metrics_json_path,
                                  batch.metrics_json() + "\n")) {
      std::cerr << "cannot write " << cli.metrics_json_path << "\n";
      return 1;
    }
  }
  if (g_interrupted != 0) {
    std::cerr << "interrupted: partial results flushed\n";
    return 130;
  }
  return all_ok ? 0 : 1;
}
