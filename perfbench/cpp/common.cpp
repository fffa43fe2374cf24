#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Cap on the spans one trace file holds; a traced run keeps measuring past
/// it, the file just stops growing.
constexpr std::size_t kMaxWrittenSpans = 200000;

/// Size of the speed probe's work.
constexpr std::size_t kProbeValues = 16384;
constexpr int kProbeMapKeys = 4096;
constexpr int kProbeVectors = 4096;

/// Position of `key` at nesting depth 0 of json[begin, end), or npos.
std::size_t find_top_level_key(const std::string& json, const std::string& key,
                               std::size_t begin, std::size_t end) {
  int depth = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (depth == 0 && c == '"' && json.compare(i, key.size(), key) == 0) {
      return i;
    }
  }
  return std::string::npos;
}

}  // namespace

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = tracer_->now_ns();
    tracer_->open_.pop_back();
  }
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) {
    return Scope(nullptr, -1);
  }
  const int index = static_cast<int>(spans_.size());
  const std::int64_t start = now_ns();
  spans_.push_back({name, start, start, open_.empty() ? -1 : open_.back(), item_});
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::record(const char* name, double seconds) {
  if (!enabled_) {
    return;
  }
  const std::int64_t end = now_ns();
  const auto duration = static_cast<std::int64_t>(seconds * 1e9);
  spans_.push_back({name, end - duration, end, open_.empty() ? -1 : open_.back(), item_});
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e6;
}

double Tracer::self_ms(const std::string& name) const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += spans_[i].end_ns - spans_[i].start_ns - covered[i];
    }
  }
  return static_cast<double>(total) / 1e6;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\": [\n";
  const std::size_t count = std::min(spans_.size(), kMaxWrittenSpans);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(span.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"item\": " << span.item << ", \"id\": " << i
        << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n], \"spans_recorded\": " << spans_.size() << "}\n";
  return static_cast<bool>(out);
}

void WorkloadResult::check(const std::string& error) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    if (failures.size() < 5) {
      failures.push_back(error);
    }
  }
}

void WorkloadResult::sample(std::size_t input, double ms) {
  latencies_ms.push_back(ms);
  if (input_latencies_ms.size() <= input) {
    input_latencies_ms.resize(input + 1);
  }
  input_latencies_ms[input].push_back(ms);
}

std::vector<double> WorkloadResult::input_medians_ms() const {
  std::vector<double> medians;
  for (const std::vector<double>& samples : input_latencies_ms) {
    if (!samples.empty()) {
      medians.push_back(quantile(samples, 0.5));
    }
  }
  return medians;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) {
    CPU_SET(cpu, &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::pin(std::size_t pass) const {
  if (cpus_.size() < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[pass % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

SetupTime timed_setup(int repetitions, const std::function<void()>& setup) {
  std::vector<double> wall;
  std::vector<double> scaled;
  SpeedProbe probe;
  for (int i = 0; i < repetitions; ++i) {
    probe.sample();
    const Clock::time_point begin = Clock::now();
    setup();
    wall.push_back(seconds_since(begin));
    scaled.push_back(wall.back() / probe.latest_slowdown());
  }
  return {quantile(std::move(wall), 0.5), quantile(std::move(scaled), 0.5)};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double throughput(const std::vector<WorkloadResult::Round>& rounds) {
  std::vector<double> rates;
  for (const WorkloadResult::Round& round : rounds) {
    if (round.wall_s > 0.0) {
      rates.push_back(round.units / round.wall_s);
    }
  }
  return quantile(std::move(rates), 0.5);
}

void SpeedProbe::sample() {
  // Fixed work: sort a pseudo-random array, fill and query an ordered map,
  // and churn small vectors. The result feeds a volatile sink so none of it
  // is optimized away.
  static volatile std::uint64_t sink = 0;
  const Clock::time_point begin = Clock::now();
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next = [&state] {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  std::vector<std::uint64_t> values(kProbeValues);
  for (std::uint64_t& value : values) {
    value = next();
  }
  std::sort(values.begin(), values.end());
  std::map<std::uint64_t, int> table;
  for (int i = 0; i < kProbeMapKeys; ++i) {
    table[next() % (4 * kProbeMapKeys)] += i;
  }
  std::uint64_t total = values[values.size() / 2];
  for (int i = 0; i < kProbeMapKeys; ++i) {
    const auto it = table.lower_bound(next() % (4 * kProbeMapKeys));
    total += it == table.end() ? 1 : static_cast<std::uint64_t>(it->second);
  }
  for (int i = 0; i < kProbeVectors; ++i) {
    std::vector<int> small(static_cast<std::size_t>(8 + next() % 56), i);
    total += static_cast<std::uint64_t>(small.back()) + small.size();
  }
  sink = sink + total;
  samples_ms_.push_back(ms_since(begin));
  last_ = Clock::now();
}

void SpeedProbe::sample_every(double interval_s) {
  if (samples_ms_.empty() || seconds_since(last_) >= interval_s) {
    sample();
  }
}

double SpeedProbe::slowdown() const {
  return samples_ms_.empty() ? 1.0 : quantile(samples_ms_, 0.5) / kReferenceMs;
}

double SpeedProbe::latest_slowdown() const {
  return samples_ms_.empty() ? 1.0 : samples_ms_.back() / kReferenceMs;
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space; getrusage's ru_maxrss
  // survives exec and so also counts the launcher's peak.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

double json_number(const std::string& json, const std::vector<std::string>& path) {
  std::size_t begin = json.find('{');
  if (begin == std::string::npos) {
    return 0.0;
  }
  std::size_t end = json.size();
  ++begin;
  for (std::size_t level = 0; level < path.size(); ++level) {
    const std::string key = "\"" + path[level] + "\":";
    const std::size_t at = find_top_level_key(json, key, begin, end);
    if (at == std::string::npos) {
      return 0.0;
    }
    const std::size_t value = json.find_first_not_of(' ', at + key.size());
    if (value == std::string::npos) {
      return 0.0;
    }
    if (level + 1 == path.size()) {
      return std::strtod(json.c_str() + value, nullptr);
    }
    if (json[value] != '{') {
      return 0.0;
    }
    int depth = 0;
    std::size_t close = value;
    for (; close < end; ++close) {
      if (json[close] == '{') {
        ++depth;
      } else if (json[close] == '}' && --depth == 0) {
        break;
      }
    }
    begin = value + 1;
    end = close;
  }
  return 0.0;
}

}  // namespace perfbench
