// Pins the list-scheduling heuristic's exact output. Every case runs the full
// flow heuristic-only (no layer reaches the MILP, so nothing depends on a
// time budget), serializes every layer solve and the kept result canonically,
// and compares an FNV-1a digest of that text with a recorded constant. The
// serialization covers each layer item (op, device, start, duration,
// transport), the inventory (config and creation layer of each device) and
// the hints each layer solve consumed.
//
// A mismatch means some scheduling decision changed. A change to the
// scheduler that is meant to keep its decisions must leave every constant
// here untouched; one that changes them on purpose records the new values
// (the failure message prints them) and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "baseline/conventional.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "core/solve_hooks.hpp"
#include "sim/runtime.hpp"

namespace cohls {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void write_items(std::ostream& out, const schedule::LayerSchedule& layer) {
  out << "layer " << layer.layer.value() << '\n';
  for (const schedule::ScheduledOperation& item : layer.items) {
    out << "  op " << item.op.value() << " dev " << item.device.value() << " start "
        << item.start.count() << " dur " << item.duration.count() << " tr "
        << item.transport.count() << '\n';
  }
}

void write_inventory(std::ostream& out, const model::DeviceInventory& inventory) {
  out << "inventory max " << inventory.max_devices() << '\n';
  for (const model::Device& device : inventory.devices()) {
    out << "  dev " << device.id.value() << ' ' << to_string(device.config.container)
        << ' ' << to_string(device.config.capacity) << " acc";
    for (const model::AccessoryId a : device.config.accessories) {
      out << ' ' << a;
    }
    out << " created " << device.created_in.value() << '\n';
  }
}

/// Never hits; records every layer solve of the flow in call order.
class RecordingCache : public core::LayerSolveCache {
 public:
  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext&) override {
    return std::nullopt;
  }
  void store(const core::LayerSolveContext&, const core::LayerOutcome& outcome) override {
    out_ << "solve\n";
    write_items(out_, outcome.result.schedule);
    out_ << "  hints";
    for (const int key : outcome.result.consumed_hints) {
      out_ << ' ' << key;
    }
    out_ << '\n';
    write_inventory(out_, outcome.inventory);
  }
  [[nodiscard]] std::string text() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

/// Canonical text of a finished flow: every layer solve, then the kept result.
std::string canonical(const RecordingCache& solves, const schedule::SynthesisResult& kept) {
  std::ostringstream out;
  out << solves.text() << "kept\n";
  for (const schedule::LayerSchedule& layer : kept.layers) {
    write_items(out, layer);
  }
  write_inventory(out, kept.devices);
  return out.str();
}

core::SynthesisOptions heuristic_options(RecordingCache& cache) {
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;
  options.engine.enable_ilp = false;
  options.layer_cache = &cache;
  return options;
}

/// Digest of one flow; an infeasible flow digests its error text instead.
std::uint64_t flow_digest(const model::Assay& assay, int max_devices, bool conventional) {
  RecordingCache cache;
  core::SynthesisOptions options = heuristic_options(cache);
  options.max_devices = max_devices;
  try {
    const core::SynthesisReport report =
        conventional ? baseline::synthesize_conventional(assay, options)
                     : core::synthesize(assay, options);
    return fnv1a(canonical(cache, report.result));
  } catch (const InfeasibleError& error) {
    return fnv1a(cache.text() + "infeasible " + error.what());
  }
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value << "ULL";
  return out.str();
}

model::Assay protocol(int which) {
  switch (which) {
    case 0: return assays::kinase_activity_assay();
    case 1: return assays::gene_expression_assay();
    default: return assays::rt_qpcr_assay();
  }
}

model::Assay random_draw(std::uint64_t seed) {
  assays::RandomAssayOptions gen;
  gen.operations = 48;
  return assays::random_assay(seed, gen);
}

TEST(HeuristicDigest, PaperProtocolsComponentOriented) {
  const std::uint64_t expected[] = {0xba65eb35213e0ee0ULL, 0xe4e476ffce39626dULL,
                                    0x15a1d8cbd1ba29e7ULL};
  for (int which = 0; which < 3; ++which) {
    const model::Assay assay = protocol(which);
    const std::uint64_t got = flow_digest(assay, 25, /*conventional=*/false);
    EXPECT_EQ(got, expected[which]) << assay.name() << " now digests to " << hex(got);
  }
}

TEST(HeuristicDigest, PaperProtocolsConventional) {
  const std::uint64_t expected[] = {0x75fc9f20377dce78ULL, 0x49e9768f68645d4eULL,
                                    0x1b781aa0378c1c9bULL};
  for (int which = 0; which < 3; ++which) {
    const model::Assay assay = protocol(which);
    const std::uint64_t got = flow_digest(assay, 25, /*conventional=*/true);
    EXPECT_EQ(got, expected[which]) << assay.name() << " now digests to " << hex(got);
  }
}

TEST(HeuristicDigest, RandomDrawsWithIndeterminateOps) {
  const std::uint64_t expected[24] = {
      0xc392039ce821b58aULL, 0x0df17c7cce9e88cfULL, 0x26e2f6d81b113d4eULL,
      0x91bd7a1c3c459d1eULL, 0x470a1081219941eaULL, 0xf6dbc55a92b0c6e9ULL,
      0x41f481efaaecdce6ULL, 0xdd5ce054c34cdb2bULL, 0xc3ca9379e5e5ffdeULL,
      0x34f0d2906b9e5c6fULL, 0x05d606ee772a66e7ULL, 0x95ea5175e4ce2b63ULL,
      0xf331ff45c099e873ULL, 0x2da104f799395cc6ULL, 0x0392ad35bb94209fULL,
      0x6350da5a169f1f34ULL, 0xad11b1df20c91064ULL, 0xcdd35d730eceb941ULL,
      0x82d75e4a885642d4ULL, 0xc9fe76016caccbebULL, 0x6597818dd95783efULL,
      0x46af0ef01b527de4ULL, 0xc4a2b5f241a6feb0ULL, 0x9d22ae2d29fffaf3ULL,
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const model::Assay assay = random_draw(seed);
    ASSERT_GT(assay.indeterminate_count(), 0) << "seed " << seed;
    const std::uint64_t got = flow_digest(assay, 25, /*conventional=*/false);
    EXPECT_EQ(got, expected[seed - 1]) << "seed " << seed << " now digests to " << hex(got);
  }
}

// Inventories at or near the smallest |D| that synthesizes the draw (|D| 13
// for seed 1 is one short and pins the infeasible outcome): fresh devices
// compete for the last slots, so the scheduler reserves slots for
// unsatisfied requirement groups and enriches the devices it is forced to
// create in every case.
TEST(HeuristicDigest, ScarceInventories) {
  struct Scarce {
    std::uint64_t seed;
    int max_devices;
    std::uint64_t digest;
  };
  const Scarce cases[] = {
      {1, 13, 0x8e566db640809145ULL}, {1, 14, 0x8893db0e510c85ffULL},
      {2, 10, 0x38ef205dc1b48d61ULL}, {4, 14, 0xc63151117a313296ULL},
      {6, 8, 0x9b9521466145f995ULL},  {7, 10, 0x2aa18e889ed2a1f9ULL},
      {8, 6, 0xb324f0c6cf0ec28eULL},
  };
  for (const Scarce& c : cases) {
    const std::uint64_t got = flow_digest(random_draw(c.seed), c.max_devices, false);
    EXPECT_EQ(got, c.digest) << "seed " << c.seed << " |D| " << c.max_devices
                             << " now digests to " << hex(got);
  }
}

TEST(HeuristicDigest, PinnedRecovery) {
  const model::Assay assay = assays::gene_expression_assay(3);
  RecordingCache first;
  core::SynthesisOptions options = heuristic_options(first);
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  const core::SynthesisReport report = core::synthesize(assay, options);

  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  const DeviceId victim = report.result.layers.front().items.front().device;
  runtime.faults.events.push_back(
      sim::FaultEvent{sim::FaultKind::DeviceFailure, victim, OperationId{}, 30_min});
  const sim::RunTrace trace = sim::simulate_run(report.result, assay, runtime);
  ASSERT_FALSE(trace.ok());

  RecordingCache second;
  options.layer_cache = &second;
  const core::RecoveryOutcome outcome = core::recover(assay, report.result, trace, options);
  ASSERT_TRUE(outcome.recovered);
  ASSERT_FALSE(outcome.residual.pinned.empty());
  const std::uint64_t got =
      fnv1a(canonical(first, report.result) + canonical(second, outcome.continuation.result));
  EXPECT_EQ(got, 0x74043f1efaa18800ULL) << "recovery now digests to " << hex(got);
}

}  // namespace
}  // namespace cohls
