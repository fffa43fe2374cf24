// cohls_perfbench — the end-to-end benchmark of the synthesis flow.
//
//   cohls_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--root <checkout>] [--trace-dir <dir>] [--commit <text>]
//
// Runs one named workload (paper-flow, milp-closure, batch-corpus,
// fleet-replay) on inputs generated from --seed, measures for --seconds and
// checks every output. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it records spans around every public call the workload makes
// and prints the per-layer metrics instead (the difference between the two
// runs' trace.* and end-to-end figures is the tracing overhead). The last
// line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the exit code is 0 only when every output passed its check.
//
// perfbench/run.py builds this binary and is the usual way to run it.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every workload (BENCHMARK.json lists the
/// same names and units). What a "unit of work" is depends on the workload:
/// an assay (paper-flow), a batch job (batch-corpus), a layer re-solve
/// (milp-closure) or one fleet replay (fleet-replay, throughput only; its
/// latency is that of one sim::run_fleet call).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},             // median of the set-up repetitions
    {"latency_ms_p50", "ms"},     // over the inputs' median latencies
    {"latency_ms_p95", "ms"},
    {"throughput_per_s", "1/s"},  // units of work per second, median pass
    {"objective_sum", "cost"},    // weighted objectives of the input set
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run. Times and counts are means per unit
/// of work; rates and shares are taken over the whole run. A layer a
/// workload does not reach reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"io.parse_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.diagnostics", "count"},
    {"core.layering_ms", "ms"},
    {"core.layers", "count"},
    {"core.boundary_storage", "count"},
    {"core.synthesize_ms", "ms"},
    {"core.resynthesis_iterations", "count"},
    {"core.layer_solves", "count"},
    {"core.layer_solve_ms", "ms"},
    {"core.layer_solves_ilp", "count"},
    {"core.flow_self_ms", "ms"},
    {"schedule.heuristic_ms", "ms"},
    {"schedule.certify_ms", "ms"},
    {"milp.model_build_ms", "ms"},
    {"milp.solve_ms", "ms"},
    {"milp.nodes", "count"},
    {"milp.cutoff_prunes", "count"},
    {"milp.bound_prunes", "count"},
    {"milp.dive_lp_solves", "count"},
    {"lp.pivots", "count"},
    {"lp.warm_solves", "count"},
    {"lp.cold_solves", "count"},
    {"lp.refactorizations", "count"},
    {"lp.us_per_pivot", "us"},
    {"engine.cache_hits", "count"},
    {"engine.cache_misses", "count"},
    {"engine.cache_hit_rate", "ratio"},
    {"engine.layers_solved", "count"},
    {"engine.ilp_layers", "count"},
    {"engine.layer_solve_ms", "ms"},
    {"core.recoveries_attempted", "count"},
    {"core.recovery_rounds", "count"},
    {"core.recoveries_degraded", "count"},
    {"core.recovery_ms", "ms"},
    {"sim.compile_ms", "ms"},
    {"sim.replay_us", "us"},
    {"sim.fleet_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.wheel_posted", "count"},
    {"sim.wheel_cascaded", "count"},
    {"trace.item_ms", "ms"},            // mean wall time per unit of work, traced
    {"trace.latency_ms_p50", "ms"},     // compare with latency_ms_p50 untraced
    {"trace.throughput_per_s", "1/s"},  // compare with throughput_per_s untraced
    {"trace.spans", "count"},
};

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunConfig&, Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"paper-flow", run_paper_flow},
    {"milp-closure", run_milp_closure},
    {"batch-corpus", run_batch_corpus},
    {"fleet-replay", run_fleet_replay},
};

int usage(const std::string& message) {
  std::cerr << "cohls_perfbench: " << message
            << "\nusage: cohls_perfbench --workload <paper-flow|milp-closure|"
               "batch-corpus|fleet-replay> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>] [--trace-dir <dir>] [--commit <text>]\n";
  return 2;
}

int available_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Sanitizers compiled into this binary, or "none".
std::string sanitizers() {
  std::string found;
#if defined(__SANITIZE_ADDRESS__)
  found += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  found += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
  found += "address ";
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
  found += "thread ";
#endif
#endif
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos) {
    found += "flags ";
  }
  return found.empty() ? "none" : found.substr(0, found.size() - 1);
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Every digit of a measured double (non-finite values print as 0).
std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value after " + arg);
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        config.trace = value == "1";
      } else if (arg == "--root") {
        config.root = value;
      } else if (arg == "--trace-dir") {
        config.trace_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload || !have_seed) {
    return usage("--workload and --seed are required");
  }
  if (!(config.seconds > 0.0 && config.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (config.workload == candidate.name) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    return usage("unknown workload " + config.workload);
  }
  config.threads = available_threads();

  // Host record, printed with every result.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "perfbench workload=" << config.workload << " seed=" << config.seed
            << " seconds=" << config.seconds << " trace=" << (config.trace ? 1 : 0)
            << "\n";
  std::cout << "host {\"nproc\": " << config.threads << ", \"build_type\": \""
            << json_escape(build_type) << "\", \"compiler\": \"" << json_escape(compiler())
            << "\", \"flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
            << "\", \"sanitizers\": \"" << sanitizers() << "\", \"commit\": \""
            << json_escape(commit) << "\"}" << std::endl;
  // Build guard: timings of unoptimized or instrumented code say nothing
  // about the shipped flow (the repository default is RelWithDebInfo).
  if (build_type == "Debug" || !optimized() || sanitizers() != "none") {
    std::cerr << "cohls_perfbench: refusing to measure a " << build_type
              << (optimized() ? "" : " unoptimized") << " build (sanitizers: "
              << sanitizers() << "); build with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n";
    return 3;
  }

  Tracer tracer(config.trace);
  WorkloadResult result;
  try {
    result = workload->run(config, tracer);
  } catch (const std::exception& e) {
    std::cerr << "cohls_perfbench: " << config.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const std::vector<double> input_medians = result.input_medians_ms();
  const double raw_p50 = quantile(input_medians, 0.50);
  const double raw_p95 = quantile(input_medians, 0.95);
  const double raw_per_s = throughput(result.rounds);
  // End-to-end timings at the reference host speed (see SpeedProbe).
  const double slowdown = result.probe.slowdown();
  const double latency_p50 = raw_p50 / slowdown;
  const double latency_p95 = raw_p95 / slowdown;
  const double units_per_s = raw_per_s * slowdown;
  const double setup_s = result.setup.scaled_s;
  result.extra["host_slowdown"] = slowdown;
  result.extra["host_probes"] = static_cast<double>(result.probe.samples());
  result.extra["wall_setup_s"] = result.setup.wall_s;
  result.extra["wall_latency_ms_p50"] = raw_p50;
  result.extra["wall_latency_ms_p95"] = raw_p95;
  result.extra["wall_throughput_per_s"] = raw_per_s;

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!config.trace) {
    const double values[] = {setup_s,     latency_p50,          latency_p95,
                             units_per_s,    result.objective_sum, peak_rss_mb()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    double item_ms = 0.0;
    for (const double ms : result.latencies_ms) {
      item_ms += ms;
    }
    const double items = std::max<double>(1.0, static_cast<double>(result.latencies_ms.size()));
    result.layer["trace.item_ms"] = item_ms / items;
    result.layer["trace.latency_ms_p50"] = latency_p50;
    result.layer["trace.throughput_per_s"] = units_per_s;
    result.layer["trace.spans"] =
        static_cast<double>(tracer.span_count()) /
        std::max<double>(1.0, static_cast<double>(result.attempted));
    std::set<std::string> known;
    for (const MetricSpec& spec : kPerLayer) {
      known.insert(spec.name);
      const auto it = result.layer.find(spec.name);
      metrics.emplace_back(spec, it != result.layer.end() ? it->second : 0.0);
    }
    for (const auto& [name, value] : result.layer) {
      if (known.count(name) == 0) {
        std::cerr << "cohls_perfbench: workload reported unlisted metric " << name << "\n";
        return 4;
      }
    }
    if (!config.trace_dir.empty()) {
      std::error_code error;
      std::filesystem::create_directories(config.trace_dir, error);
      const std::string path = config.trace_dir + "/" + config.workload + "-seed" +
                               std::to_string(config.seed) + ".trace.json";
      if (tracer.write_chrome_trace(path)) {
        std::cout << "spans " << tracer.span_count() << " written to " << path << "\n";
      } else {
        std::cerr << "cohls_perfbench: cannot write " << path << "\n";
      }
    }
  }

  for (const auto& [spec, value] : metrics) {
    std::cout << "metric " << spec.name << " " << number(value) << " " << spec.unit << "\n";
  }
  std::cout << "samples " << result.latencies_ms.size() << " inputs " << input_medians.size()
            << " passes " << result.rounds.size() << "\n";
  for (const auto& [name, value] : result.extra) {
    std::cout << "extra " << name << " " << number(value) << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cout << "failure " << failure << "\n";
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].first.name
              << "\": {\"value\": " << number(metrics[i].second) << ", \"unit\": \""
              << metrics[i].first.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
