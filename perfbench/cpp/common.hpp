// Shared plumbing of the end-to-end benchmark: the run configuration, the
// span recorder of the traced run, latency statistics and the result record
// every workload fills in. Nothing here reaches into the synthesis
// libraries; the workloads call only their public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point begin);
[[nodiscard]] double ms_since(Clock::time_point begin);

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measurement window.
  double seconds = 10.0;
  /// Record spans and report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Checkout root; the paper protocols are read from
  /// <root>/examples/protocols.
  std::string root = ".";
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_dir;
  /// Hardware threads available to this process (nproc).
  int threads = 1;
};

/// Spans of the traced run, kept in memory and written out when the run
/// ends. A span has a name, a start, an end and the span that was open when
/// it began; spans of one unit of work share an item number. Single-threaded:
/// every workload opens spans from its driving thread only. A disabled
/// tracer records nothing and its scopes cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened by Tracer::span, closed when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts the next unit of work; later spans carry its number.
  void begin_item() { ++item_; }

  /// Opens a span named `name` (a string literal) under the open span.
  [[nodiscard]] Scope span(const char* name);

  /// Records an already finished child of the open span that lasted
  /// `seconds` and ended now — how the solve hook, which reports durations
  /// after the fact, becomes spans.
  void record(const char* name, double seconds);

  /// Summed duration of every span named `name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Summed self time of the spans named `name`: their duration minus the
  /// part their child spans cover.
  [[nodiscard]] double self_ms(const std::string& name) const;
  [[nodiscard]] long span_count() const { return static_cast<long>(spans_.size()); }

  /// Writes the spans as a Chrome trace-event file (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    long item;
  };

  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  long item_ = 0;
};

/// The speed of the host, sampled during a run with a fixed piece of work
/// that belongs to the benchmark (sorting, an ordered map, small
/// allocations — the kind of work the synthesis flow does), so it never
/// changes with the code under test. On a shared host the speed of a core
/// drifts by tens of percent over minutes with the load of its neighbours;
/// timings divided by the probe's slowdown read as if taken on a host where
/// the probe takes kReferenceMs, and so follow the code, not the host.
class SpeedProbe {
 public:
  /// How often the single-threaded workloads sample it, between passes.
  static constexpr double kInterval_s = 0.1;
  /// Probe time on the reference host, a quiet 4-vCPU Xeon virtual machine
  /// (rounded); timings there read about the same scaled and unscaled.
  static constexpr double kReferenceMs = 2.0;

  /// Runs the probe once and records its time.
  void sample();
  /// Runs the probe if at least `interval_s` passed since the last sample.
  void sample_every(double interval_s);
  /// Median probe time over reference time (> 1 on a slower host); 1 when
  /// nothing was sampled.
  [[nodiscard]] double slowdown() const;
  /// The same for the last sample alone.
  [[nodiscard]] double latest_slowdown() const;
  [[nodiscard]] std::size_t samples() const { return samples_ms_.size(); }

 private:
  std::vector<double> samples_ms_;
  Clock::time_point last_ = Clock::now();
};

/// Median time of one set-up repetition, in seconds: as measured, and at the
/// reference host speed.
struct SetupTime {
  double wall_s = 0.0;
  double scaled_s = 0.0;
};

/// What a workload reports back to main().
///
/// Every workload runs its fixed input set in whole passes, so each pass
/// does the same work. The latency percentiles are taken over the inputs'
/// median latencies and the throughput is the median pass rate: a burst of
/// load from outside the process has to slow most passes of an input before
/// it moves a figure.
struct WorkloadResult {
  /// Median set-up time over the set-up repetitions.
  SetupTime setup;
  /// Latency of each unit of work completed in the measurement window, in
  /// the order they completed.
  std::vector<double> latencies_ms;
  /// The same samples grouped by input (index into the workload's input set).
  std::vector<std::vector<double>> input_latencies_ms;
  /// One pass over the input set: its wall time and the units of work it
  /// completed (assays, layer solves, jobs or fleet runs).
  struct Round {
    double wall_s;
    double units;
  };
  std::vector<Round> rounds;
  /// Sum of the weighted objectives of the workload's input set.
  double objective_sum = 0.0;
  /// Units of work attempted and those whose output failed a check.
  long attempted = 0;
  long failed = 0;
  /// The first few failure descriptions.
  std::vector<std::string> failures;
  /// Workload-specific figures printed as text next to the metrics.
  std::map<std::string, double> extra;
  /// Per-layer metrics (traced run only), by name.
  std::map<std::string, double> layer;
  /// Host speed sampled between passes; main() divides the end-to-end
  /// timings by its slowdown.
  SpeedProbe probe;

  /// Counts one attempted unit; an empty `error` means its outputs passed.
  void check(const std::string& error);
  /// Records the latency of one unit of work on input `input`.
  void sample(std::size_t input, double ms);
  /// Median latency of each input that has samples.
  [[nodiscard]] std::vector<double> input_medians_ms() const;
};

/// Runs `setup` `repetitions` times; each repetition rebuilds the workload's
/// state from scratch. Set-up lasts well under a second, too short for the
/// run's host speed to describe it, so every repetition is scaled by a probe
/// sample taken just before it.
[[nodiscard]] SetupTime timed_setup(int repetitions, const std::function<void()>& setup);

/// q-quantile (q in [0, 1]) by linear interpolation; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Units of work per second: the median of the passes' rates.
[[nodiscard]] double throughput(const std::vector<WorkloadResult::Round>& rounds);

/// 0..n-1 in an order drawn from `rng` (anything with the
/// uniform_int(lo, hi) of util/rng).
template <class Rng>
[[nodiscard]] std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return order;
}

/// Pins the calling thread to one of the CPUs it may run on, a different
/// one each pass, so a single-threaded loop samples every CPU of the host
/// rather than whichever one the scheduler first put it on (on a shared
/// host, virtual CPUs differ in how busy their physical cores are).
/// Restores the original CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation();

  /// Moves the calling thread to the CPU of pass `pass`.
  void pin(std::size_t pass) const;

 private:
  std::vector<int> cpus_;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Reads a whole file; throws std::runtime_error when it cannot.
[[nodiscard]] std::string read_file(const std::string& path);

/// The number at `path` inside a JSON document of nested objects, e.g.
/// {"counters", "layers_solved"}; 0 when a key is absent. Enough for the
/// engine's metrics dump, not a general JSON parser.
[[nodiscard]] double json_number(const std::string& json,
                                 const std::vector<std::string>& path);

/// Workload entry points, one file each. Every file states why the
/// workload exists and which layers it exercises or bypasses.
WorkloadResult run_paper_flow(const RunConfig& config, Tracer& tracer);
WorkloadResult run_milp_closure(const RunConfig& config, Tracer& tracer);
WorkloadResult run_batch_corpus(const RunConfig& config, Tracer& tracer);
WorkloadResult run_fleet_replay(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
