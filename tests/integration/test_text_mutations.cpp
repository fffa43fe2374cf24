// Seeded mutation test of the text formats. Mutants of the committed
// protocols, of a saved synthesis result, of a fault plan, of a batch
// manifest and of a hazard spec go through the readers; for every mutant:
//   - nothing throws but the format's own error type;
//   - every rejection after the header line carries its line number;
//   - every assay assay_from_text rejects also gets a lint error;
//   - every assay that lexes lints exactly as the map-based reference does;
//   - every accepted input round-trips through its writer to an equal value.
// Mutants are every numeric extreme in place of sampled number tokens, plus
// random byte flips, token splices, deletions and CRLF line ends drawn from
// a fixed seed, so a failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/linter.hpp"
#include "core/progressive_resynthesis.hpp"
#include "io/assay_text.hpp"
#include "io/result_text.hpp"
#include "engine/batch.hpp"
#include "sim/faults.hpp"
#include "sim/hazard.hpp"
#include "support/lint_reference.hpp"
#include "util/lexer.hpp"
#include "util/rng.hpp"

namespace cohls {
namespace {

constexpr int kMutantsPerSeed = 400;
constexpr std::size_t kNumbersPerSeed = 40;
constexpr std::uint64_t kSeed = 0x54455854u;  // "TEXT"

const char* const kExtremes[] = {"2147483647", "2147483648", "-2147483648",
                                 "-2147483649", "9223372036854775808", "nan",
                                 "inf", "-inf", "1e309", "12x", "+5", "0x10", "-0"};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool is_delimiter(char c) {
  return std::string_view(" \t\r\n={};,\"").find(c) != std::string_view::npos;
}

struct Token {
  std::size_t begin = 0;
  std::size_t size = 0;
};

std::vector<Token> tokens_of(const std::string& text) {
  std::vector<Token> tokens;
  for (std::size_t i = 0; i < text.size();) {
    if (is_delimiter(text[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() && !is_delimiter(text[i])) {
      ++i;
    }
    tokens.push_back({begin, i - begin});
  }
  return tokens;
}

std::vector<Token> numbers_of(const std::string& text) {
  std::vector<Token> numbers;
  for (const Token& token : tokens_of(text)) {
    const char first = text[token.begin];
    if ((first >= '0' && first <= '9') || first == '-') {
      numbers.push_back(token);
    }
  }
  return numbers;
}

std::size_t pick(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// One to three edits of `text`, then CRLF line ends one time in four.
/// Spliced tokens come from `donor`.
std::string mutate(std::string text, const std::string& donor, Rng& rng) {
  const std::vector<Token> donor_tokens = tokens_of(donor);
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int edit = 0; edit < edits && !text.empty(); ++edit) {
    const std::vector<Token> tokens = tokens_of(text);
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // byte flip, half the time to a character the grammar uses
        const std::string_view syntax = "#\"={};, \t\r\n-.0123456789x";
        text[pick(rng, text.size())] = rng.bernoulli(0.5)
                                           ? syntax[pick(rng, syntax.size())]
                                           : static_cast<char>(rng.uniform_int(0, 255));
        break;
      }
      case 1: {  // token splice
        if (tokens.empty() || donor_tokens.empty()) {
          break;
        }
        const Token from = donor_tokens[pick(rng, donor_tokens.size())];
        const Token to = tokens[pick(rng, tokens.size())];
        text.replace(to.begin, to.size, donor.substr(from.begin, from.size));
        break;
      }
      case 2: {  // a number token becomes a numeric extreme
        const std::vector<Token> numbers = numbers_of(text);
        if (numbers.empty()) {
          break;
        }
        const Token to = numbers[pick(rng, numbers.size())];
        text.replace(to.begin, to.size, kExtremes[pick(rng, std::size(kExtremes))]);
        break;
      }
      default: {  // delete a character
        text.erase(pick(rng, text.size()), 1);
        break;
      }
    }
  }
  if (rng.bernoulli(0.25)) {
    std::string crlf;
    for (const char c : text) {
      crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    }
    text = std::move(crlf);
  }
  return text;
}

/// A rejection must name its line unless the document lacks its header.
std::string untagged(int line, const std::string& message) {
  if (line > 0 || message.rfind("missing '", 0) == 0) {
    return "";
  }
  return "rejection without a line: " + message;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::string assay_difference(const model::Assay& a, const model::Assay& b) {
  if (a.name() != b.name() || a.operation_count() != b.operation_count() ||
      a.registry().count() != b.registry().count()) {
    return "name, operation count or accessory count differs";
  }
  for (model::AccessoryId id = 0; id < a.registry().count(); ++id) {
    if (a.registry().name(id) != b.registry().name(id) ||
        bits(a.registry().processing_cost(id)) != bits(b.registry().processing_cost(id))) {
      return "accessory " + std::to_string(id) + " differs";
    }
  }
  for (int i = 0; i < a.operation_count(); ++i) {
    const model::Operation& x = a.operation(OperationId{i});
    const model::Operation& y = b.operation(OperationId{i});
    if (x.name() != y.name() || x.duration() != y.duration() ||
        x.container() != y.container() || x.capacity() != y.capacity() ||
        x.accessories() != y.accessories() || x.indeterminate() != y.indeterminate() ||
        !std::ranges::equal(x.parents(), y.parents())) {
      return "operation " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// Empty when the linter and its map-based reference agree on `source`,
/// under the default budgets and under tight ones that fire the graph rules.
std::string lint_mismatch(const io::AssaySource& source) {
  for (const analysis::AnalysisOptions& options :
       {analysis::AnalysisOptions{}, analysis::AnalysisOptions{2, 1}}) {
    const std::string difference = oracles::lint_difference(
        analysis::lint_assay(source, options), oracles::lint_assay_reference(source, options));
    if (!difference.empty()) {
      return "lint differs from the reference: " + difference;
    }
  }
  return "";
}

std::string check_assay(const std::string& text) {
  std::string failure;
  try {
    failure = lint_mismatch(io::parse_assay_source(text));
  } catch (const io::ParseError& e) {
    failure = untagged(e.line(), e.message());
  }
  const analysis::LintReport lint = analysis::lint_assay_text(text);
  std::optional<model::Assay> assay;
  try {
    assay.emplace(io::assay_from_text(text));
  } catch (const io::ParseError& e) {
    if (failure.empty()) {
      failure = untagged(e.line(), e.message());
    }
    if (failure.empty() && !lint.has_errors()) {
      failure = "assay_from_text rejects but lint is clean: " + std::string(e.what());
    }
    return failure;
  }
  if (!failure.empty()) {
    return failure;
  }
  try {
    return assay_difference(*assay, io::assay_from_text(io::to_text(*assay)));
  } catch (const io::ParseError& e) {
    return std::string("written assay does not read back: ") + e.what();
  }
}

std::string result_difference(const schedule::SynthesisResult& a,
                              const schedule::SynthesisResult& b) {
  if (a.devices.max_devices() != b.devices.max_devices() ||
      a.devices.size() != b.devices.size() || a.layers.size() != b.layers.size()) {
    return "device limit, device count or layer count differs";
  }
  for (int d = 0; d < a.devices.size(); ++d) {
    const model::Device& x = a.devices.devices()[d];
    const model::Device& y = b.devices.devices()[d];
    if (x.id != y.id || !(x.config == y.config) || x.created_in != y.created_in) {
      return "device " + std::to_string(d) + " differs";
    }
  }
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const auto& x = a.layers[l];
    const auto& y = b.layers[l];
    if (x.layer != y.layer || x.items.size() != y.items.size()) {
      return "layer " + std::to_string(l) + " differs";
    }
    for (std::size_t i = 0; i < x.items.size(); ++i) {
      const schedule::ScheduledOperation& p = x.items[i];
      const schedule::ScheduledOperation& q = y.items[i];
      if (p.op != q.op || p.device != q.device || p.start != q.start ||
          p.duration != q.duration || p.transport != q.transport) {
        return "layer " + std::to_string(l) + " item " + std::to_string(i) + " differs";
      }
    }
  }
  return "";
}

std::string check_result(const std::string& text, const model::Assay& assay) {
  std::optional<schedule::SynthesisResult> result;
  try {
    result.emplace(io::result_from_text(text, assay));
  } catch (const io::ParseError& e) {
    return untagged(e.line(), e.message());
  }
  try {
    return result_difference(*result, io::result_from_text(io::to_text(*result, assay), assay));
  } catch (const io::ParseError& e) {
    return std::string("written result does not read back: ") + e.what();
  }
}

std::string check_fault_plan(const std::string& text) {
  std::optional<sim::FaultPlan> plan;
  try {
    plan.emplace(sim::parse_fault_plan(text));
  } catch (const sim::FaultPlanError& e) {
    return e.line() > 0 ? "" : std::string("rejection without a line: ") + e.what();
  }
  try {
    const sim::FaultPlan again = sim::parse_fault_plan(sim::to_text(*plan));
    return again.events == plan->events ? "" : "fault plan does not round-trip";
  } catch (const sim::FaultPlanError& e) {
    return std::string("written plan does not read back: ") + e.what();
  }
}

/// A manifest names one job per line; the names written back one per line
/// must read as the same jobs.
std::string check_manifest(const std::string& text) {
  const std::vector<engine::BatchJob> jobs = engine::jobs_from_manifest(text, "base");
  std::string written;
  for (const engine::BatchJob& job : jobs) {
    if (job.name.empty() || job.name != lex::trim(job.name) ||
        job.name.find_first_of("#\n") != std::string::npos) {
      return "job name '" + job.name + "' is empty, padded or holds '#' or a line end";
    }
    written += job.name + "\n";
  }
  const std::vector<engine::BatchJob> again = engine::jobs_from_manifest(written, "base");
  if (again.size() != jobs.size()) {
    return "manifest does not round-trip";
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (again[i].name != jobs[i].name || again[i].path != jobs[i].path) {
      return "job " + std::to_string(i) + " does not round-trip";
    }
  }
  return "";
}

/// The spec grammar's text for `model`, every real in shortest form.
std::string hazard_text(const sim::HazardModel& model, const model::AccessoryRegistry& registry) {
  std::string text;
  for (const sim::HazardRule& rule : model.rules()) {
    std::string target = rule.accessory < 0 ? "default" : registry.name(rule.accessory);
    std::replace(target.begin(), target.end(), ' ', '-');
    text += target + "=";
    text += rule.dist.family == sim::HazardFamily::Weibull
                ? "weibull:" + lex::format_double(rule.dist.scale) + "," +
                      lex::format_double(rule.dist.shape)
                : "exp:" + lex::format_double(rule.dist.scale);
    text += "; ";
  }
  return text;
}

std::string check_hazard_spec(const std::string& text) {
  const model::AccessoryRegistry registry;
  std::optional<sim::HazardModel> model;
  try {
    model.emplace(sim::parse_hazard_spec(text, registry));
  } catch (const sim::HazardSpecError&) {
    return "";
  }
  try {
    const sim::HazardModel again = sim::parse_hazard_spec(hazard_text(*model, registry), registry);
    if (again.rules().size() != model->rules().size()) {
      return "hazard spec does not round-trip";
    }
    for (std::size_t i = 0; i < again.rules().size(); ++i) {
      const sim::HazardRule& x = model->rules()[i];
      const sim::HazardRule& y = again.rules()[i];
      if (x.accessory != y.accessory || x.dist.family != y.dist.family ||
          bits(x.dist.scale) != bits(y.dist.scale) || bits(x.dist.shape) != bits(y.dist.shape)) {
        return "hazard rule " + std::to_string(i) + " does not round-trip";
      }
    }
  } catch (const sim::HazardSpecError& e) {
    return std::string("written hazard spec does not read back: ") + e.what();
  }
  return "";
}

/// Every numeric extreme in place of each of up to kNumbersPerSeed number
/// tokens of `seed`, spread over the text.
std::vector<std::string> extreme_mutants(const std::string& seed) {
  const std::vector<Token> numbers = numbers_of(seed);
  const std::size_t stride = numbers.size() / kNumbersPerSeed + 1;
  std::vector<std::string> mutants;
  for (std::size_t n = 0; n < numbers.size(); n += stride) {
    for (const char* extreme : kExtremes) {
      mutants.push_back(seed);
      mutants.back().replace(numbers[n].begin, numbers[n].size, extreme);
    }
  }
  return mutants;
}

/// Runs `check` on the extreme mutants and kMutantsPerSeed random mutants of
/// each seed; reports the first few failing mutants, and any exception other
/// than the format's own.
template <class Check>
void run_mutants(const std::vector<std::string>& seeds, std::uint64_t stream, Check check) {
  Rng rng(derive_stream_seed(kSeed, stream, 0));
  std::vector<std::string> mutants;
  for (const std::string& seed : seeds) {
    for (std::string& mutant : extreme_mutants(seed)) {
      mutants.push_back(std::move(mutant));
    }
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      mutants.push_back(mutate(seed, seeds[pick(rng, seeds.size())], rng));
    }
  }
  int failures = 0;
  for (const std::string& mutant : mutants) {
    std::string failure;
    try {
      failure = check(mutant);
    } catch (const std::exception& e) {
      failure = std::string("unexpected exception: ") + e.what();
    }
    if (!failure.empty()) {
      ADD_FAILURE() << failure << "\n--- mutant ---\n" << mutant;
      if (++failures == 5) {
        return;
      }
    }
  }
}

std::vector<std::string> assay_seeds() {
  std::vector<std::string> seeds;
  for (const char* name : {"kinase_activity", "gene_expression", "rt_qpcr"}) {
    seeds.push_back(read_file(std::string(COHLS_PROTOCOLS_DIR) + "/" + name + ".assay"));
  }
  // A custom accessory puts a real number in play.
  std::string custom = seeds.front();
  custom.insert(custom.find('\n') + 1, "accessory \"droplet sorter\" cost=0.1234567\n");
  const std::string list = "accessories={sieve valve}";
  custom.replace(custom.find(list), list.size(), "accessories={sieve valve; droplet sorter}");
  seeds.push_back(custom);
  return seeds;
}

TEST(TextMutations, Assays) {
  const std::vector<std::string> seeds = assay_seeds();
  for (const std::string& seed : seeds) {
    ASSERT_EQ(check_assay(seed), "");
  }
  run_mutants(seeds, 1, check_assay);
}

TEST(TextMutations, SavedResults) {
  const model::Assay assay = io::assay_from_text(assay_seeds().front());
  const std::string saved = io::to_text(core::synthesize(assay, {}).result, assay);
  ASSERT_EQ(check_result(saved, assay), "");
  run_mutants({saved}, 2, [&assay](const std::string& text) { return check_result(text, assay); });
}

TEST(TextMutations, FaultPlans) {
  const std::string plan =
      "# a plan of every directive\n"
      "device-fail 2 at 30\n"
      "degrade 1 by 1.5 from 10\n"
      "degrade 0 by 1.2345678\n"
      "exhaust 7\n"
      "transport-delay 3 from 45\n"
      "transport-delay 2\n";
  ASSERT_EQ(check_fault_plan(plan), "");
  run_mutants({plan}, 3, check_fault_plan);
}

TEST(TextMutations, Manifests) {
  const std::string manifest =
      "# the paper's protocols\n"
      "kinase_activity.assay\n"
      "  gene_expression.assay   # trailing comment\n"
      "\n"
      "/abs/rt_qpcr.assay\r\n"
      "dir with spaces/a.assay\n";
  ASSERT_EQ(check_manifest(manifest), "");
  ASSERT_EQ(engine::jobs_from_manifest(manifest, "base").size(), 4u);
  run_mutants({manifest}, 4, check_manifest);
}

TEST(TextMutations, HazardSpecs) {
  const std::string spec =
      "exp:5000; heating-pad=weibull:2000,1.5; default=exponential:9000.25; "
      "optical-system=exp:1e-3; pump=weibull:0.001,1";
  ASSERT_EQ(check_hazard_spec(spec), "");
  ASSERT_EQ(sim::parse_hazard_spec(spec, model::AccessoryRegistry{}).rules().size(), 5u);
  run_mutants({spec}, 5, check_hazard_spec);
}

}  // namespace
}  // namespace cohls
