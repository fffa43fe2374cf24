// Mutation-style properties for the certifier: synthesize a real benchmark
// schedule (which certifies clean), apply ONE targeted corruption, and
// assert that exactly the intended COHLS-Exxx code fires. Each mutation is
// constructed so its side effects cannot trip neighbouring checks (moves
// only shrink occupation windows, relocations only touch operations whose
// neighbours sit on other devices, and so on). Every certification also runs
// the map-based reference certifier and requires the identical diagnostic
// sequence, code and message, in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "model/compatibility.hpp"
#include "schedule/validate.hpp"
#include "support/flow_reference.hpp"

namespace cohls::schedule {
namespace {

using model::Capacity;
using model::ContainerKind;

core::SynthesisOptions paper_options() {
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;
  return options;
}

struct Bench {
  model::Assay assay;
  core::SynthesisReport report;
};

const Bench& kinase_bench() {
  static const Bench bench = [] {
    model::Assay assay = assays::kinase_activity_assay();
    core::SynthesisReport report = core::synthesize(assay, paper_options());
    return Bench{std::move(assay), std::move(report)};
  }();
  return bench;
}

const Bench& gene_bench() {
  static const Bench bench = [] {
    model::Assay assay = assays::gene_expression_assay();
    core::SynthesisReport report = core::synthesize(assay, paper_options());
    return Bench{std::move(assay), std::move(report)};
  }();
  return bench;
}

/// certify_result, checked against the reference certifier.
std::vector<diag::Diagnostic> certify(const SynthesisResult& result, const model::Assay& assay,
                                      const TransportPlan& transport) {
  std::vector<diag::Diagnostic> diagnostics = certify_result(result, assay, transport);
  const std::vector<diag::Diagnostic> reference =
      oracles::certify_result_reference(result, assay, transport);
  EXPECT_EQ(diagnostics.size(), reference.size());
  for (std::size_t i = 0; i < std::min(diagnostics.size(), reference.size()); ++i) {
    EXPECT_EQ(diagnostics[i].code, reference[i].code) << "diagnostic " << i;
    EXPECT_EQ(diagnostics[i].message, reference[i].message) << "diagnostic " << i;
  }
  return diagnostics;
}

/// True when the report is non-empty and every diagnostic carries `code`.
bool only_code(const std::vector<diag::Diagnostic>& diagnostics, const char* code) {
  if (diagnostics.empty()) {
    return false;
  }
  return std::all_of(diagnostics.begin(), diagnostics.end(),
                     [code](const diag::Diagnostic& d) { return d.code == code; });
}

std::string render(const std::vector<diag::Diagnostic>& diagnostics) {
  return diag::render_text(diagnostics, "schedule");
}

struct Flat {
  int layer = 0;
  std::size_t index = 0;
};

std::map<OperationId, Flat> flatten(const SynthesisResult& result) {
  std::map<OperationId, Flat> flat;
  for (int li = 0; li < static_cast<int>(result.layers.size()); ++li) {
    const auto& items = result.layers[static_cast<std::size_t>(li)].items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      flat[items[i].op] = Flat{li, i};
    }
  }
  return flat;
}

const ScheduledOperation& at(const SynthesisResult& result, Flat where) {
  return result.layers[static_cast<std::size_t>(where.layer)].items[where.index];
}

ScheduledOperation& at(SynthesisResult& result, Flat where) {
  return result.layers[static_cast<std::size_t>(where.layer)].items[where.index];
}

/// Earliest start the dependency checks allow for `item`, exactly as the
/// certifier computes it (same-layer parents gate on end + transport,
/// cross-layer parents on the transport alone).
Minutes dependency_bound(const SynthesisResult& result, const model::Assay& assay,
                         const TransportPlan& transport,
                         const std::map<OperationId, Flat>& flat, Flat where) {
  const ScheduledOperation& item = at(result, where);
  Minutes bound{0};
  for (const OperationId parent : assay.operation(item.op).parents()) {
    const Flat p = flat.at(parent);
    const ScheduledOperation& pi = at(result, p);
    const Minutes t = pi.device == item.device
                          ? Minutes{0}
                          : oracles::edge_time_between(transport, assay, parent, item.op);
    bound = std::max(bound, p.layer == where.layer ? pi.end() + t : t);
  }
  return bound;
}

/// Device-occupation end of `item`, exactly as the certifier computes it.
Minutes occupation_end(const SynthesisResult& result, const model::Assay& assay,
                       const TransportPlan& transport,
                       const std::map<OperationId, Flat>& flat, Flat where) {
  const ScheduledOperation& item = at(result, where);
  Minutes end = item.end();
  for (const OperationId child : assay.children(item.op)) {
    const Flat c = flat.at(child);
    if (c.layer == where.layer && at(result, c).device != item.device) {
      end = std::max(end, item.end() + oracles::edge_time_between(transport, assay, item.op, child));
    }
  }
  return end;
}

/// True when rebinding `item` to a brand-new device (one nothing else uses)
/// perturbs no check other than the binding ones: no same-layer neighbour
/// shares its device, and every cross-layer neighbour that does already
/// starts late enough to absorb the transport the move introduces.
bool relocatable(const SynthesisResult& result, const model::Assay& assay,
                 const TransportPlan& transport,
                 const std::map<OperationId, Flat>& flat, Flat where) {
  const ScheduledOperation& item = at(result, where);
  for (const OperationId parent : assay.operation(item.op).parents()) {
    const Flat p = flat.at(parent);
    const ScheduledOperation& pi = at(result, p);
    if (pi.device != item.device) {
      continue;
    }
    if (p.layer == where.layer) {
      return false;  // parent's occupation would stretch by the new transport
    }
    if (item.start < oracles::edge_time_between(transport, assay, parent, item.op)) {
      return false;
    }
  }
  for (const OperationId child : assay.children(item.op)) {
    const Flat c = flat.at(child);
    const ScheduledOperation& ci = at(result, c);
    if (ci.device != item.device) {
      continue;
    }
    const Minutes t = oracles::edge_time_between(transport, assay, item.op, child);
    if (c.layer == where.layer ? ci.start < item.end() + t : ci.start < t) {
      return false;
    }
  }
  return true;
}

TEST(CertifyMutations, SynthesizedSchedulesCertifyClean) {
  const Bench& kinase = kinase_bench();
  EXPECT_TRUE(certify(kinase.report.result, kinase.assay, kinase.report.transport).empty());
  const Bench& gene = gene_bench();
  EXPECT_TRUE(certify(gene.report.result, gene.assay, gene.report.transport).empty());
}

TEST(CertifyMutations, DuplicatedEntryFiresExactlyE202) {
  const Bench& bench = gene_bench();
  SynthesisResult mutated = bench.report.result;
  mutated.layers.back().items.push_back(mutated.layers.front().items.front());
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kDuplicateSchedule))
      << render(diagnostics);
}

TEST(CertifyMutations, DroppedEntryFiresExactlyE203) {
  const Bench& bench = gene_bench();
  SynthesisResult mutated = bench.report.result;
  mutated.layers.back().items.pop_back();
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kMissingOperation))
      << render(diagnostics);
}

TEST(CertifyMutations, ForeignOperationIdFiresE201) {
  const Bench& bench = kinase_bench();
  SynthesisResult mutated = bench.report.result;
  mutated.layers.front().items.front().op =
      OperationId{bench.assay.operation_count()};
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  // The overwritten operation is also missing now; nothing else may fire.
  bool unknown = false;
  for (const diag::Diagnostic& d : diagnostics) {
    unknown |= d.code == diag::codes::kUnknownOperation;
    EXPECT_TRUE(d.code == diag::codes::kUnknownOperation ||
                d.code == diag::codes::kMissingOperation)
        << render(diagnostics);
  }
  EXPECT_TRUE(unknown) << render(diagnostics);
}

TEST(CertifyMutations, NegativeStartFiresExactlyE204) {
  const Bench& bench = kinase_bench();
  SynthesisResult mutated = bench.report.result;
  // A parentless operation that already starts first on its device: pulling
  // it to -1 shifts its window left without reaching anything else.
  bool found = false;
  for (auto& layer : mutated.layers) {
    for (ScheduledOperation& item : layer.items) {
      if (!bench.assay.operation(item.op).parents().empty()) {
        continue;
      }
      const bool first_on_device = std::all_of(
          layer.items.begin(), layer.items.end(),
          [&item](const ScheduledOperation& other) {
            return other.device != item.device || other.start >= item.start;
          });
      if (first_on_device) {
        item.start = Minutes{-1};
        found = true;
        break;
      }
    }
    if (found) {
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kNegativeStart))
      << render(diagnostics);
}

TEST(CertifyMutations, ShrunkDurationFiresExactlyE205) {
  const Bench& bench = kinase_bench();
  SynthesisResult mutated = bench.report.result;
  // Shrinking a duration only contracts the occupation window; no ordering
  // or overlap check can newly fail.
  bool found = false;
  for (auto& layer : mutated.layers) {
    for (ScheduledOperation& item : layer.items) {
      if (!bench.assay.operation(item.op).indeterminate() &&
          item.duration >= Minutes{2}) {
        item.duration = item.duration - Minutes{1};
        found = true;
        break;
      }
    }
    if (found) {
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kWrongDuration))
      << render(diagnostics);
}

TEST(CertifyMutations, OutOfInventoryDeviceFiresExactlyE206) {
  for (const Bench* bench : {&gene_bench(), &kinase_bench()}) {
    SynthesisResult mutated = bench->report.result;
    const auto flat = flatten(mutated);
    for (const auto& [op, where] : flat) {
      if (!relocatable(mutated, bench->assay, bench->report.transport, flat,
                       where)) {
        continue;
      }
      at(mutated, where).device = DeviceId{mutated.devices.size()};
      const auto diagnostics =
          certify(mutated, bench->assay, bench->report.transport);
      EXPECT_TRUE(only_code(diagnostics, diag::codes::kUnknownDevice))
          << render(diagnostics);
      return;
    }
  }
  FAIL() << "no relocatable operation in either benchmark schedule";
}

TEST(CertifyMutations, RebindingToIncompatibleDeviceFiresExactlyE207) {
  for (const Bench* bench : {&gene_bench(), &kinase_bench()}) {
    if (bench->report.result.devices.full()) {
      continue;  // no room for the decoy device
    }
    SynthesisResult mutated = bench->report.result;
    const auto flat = flatten(mutated);
    const model::DeviceConfig decoy{ContainerKind::Chamber, Capacity::Tiny, {}};
    for (const auto& [op, where] : flat) {
      if (model::is_compatible(bench->assay.operation(op), decoy)) {
        continue;
      }
      if (!relocatable(mutated, bench->assay, bench->report.transport, flat,
                       where)) {
        continue;
      }
      const DeviceId fresh = mutated.devices.instantiate(decoy, LayerId{0});
      at(mutated, where).device = fresh;
      const auto diagnostics =
          certify(mutated, bench->assay, bench->report.transport);
      EXPECT_TRUE(only_code(diagnostics, diag::codes::kIncompatibleBinding))
          << render(diagnostics);
      return;
    }
  }
  FAIL() << "no relocatable incompatible operation in either benchmark";
}

TEST(CertifyMutations, SwappedLayersFireExactlyE208) {
  const Bench& bench = gene_bench();
  SynthesisResult mutated = bench.report.result;
  ASSERT_GE(mutated.layers.size(), 2u);
  std::swap(mutated.layers[0], mutated.layers[1]);
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  // One violation per dependency edge crossing the swapped boundary; the
  // certifier skips the start checks of an edge it reports out of order, so
  // nothing else may fire.
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kParentLayerOrder))
      << render(diagnostics);
}

TEST(CertifyMutations, OverlapOnSharedDeviceFiresExactlyE211) {
  const Bench& bench = gene_bench();
  SynthesisResult mutated = bench.report.result;
  const auto flat = flatten(mutated);
  // Pull an operation back onto the busy window of an earlier same-device
  // neighbour, but never before what its own parents allow — the move can
  // only create overlaps, all of them E211.
  bool found = false;
  for (const auto& [op, where] : flat) {
    if (found) {
      break;
    }
    const auto& items = mutated.layers[static_cast<std::size_t>(where.layer)].items;
    for (const ScheduledOperation& earlier : items) {
      const ScheduledOperation& item = at(mutated, where);
      if (earlier.device != item.device || earlier.op == item.op ||
          earlier.start >= item.start) {
        continue;
      }
      const Flat ew = flat.at(earlier.op);
      const Minutes bound = dependency_bound(mutated, bench.assay,
                                             bench.report.transport, flat, where);
      const Minutes target = std::max(bound, earlier.start);
      const Minutes busy_until = occupation_end(mutated, bench.assay,
                                                bench.report.transport, flat, ew);
      if (target < item.start && target < busy_until) {
        at(mutated, where).start = target;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no same-device pair admits a parent-safe overlap";
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kDeviceOverlap))
      << render(diagnostics);
}

TEST(CertifyMutations, StartAfterIndeterminateEndFiresExactlyE212) {
  const Bench& bench = gene_bench();
  SynthesisResult mutated = bench.report.result;
  // Layer 0 of the gene-expression assay is the capture cluster: all
  // indeterminate, pairwise on distinct devices, children all downstream.
  auto& captures = mutated.layers.front().items;
  ASSERT_GE(captures.size(), 2u);
  for (const ScheduledOperation& item : captures) {
    ASSERT_TRUE(bench.assay.operation(item.op).indeterminate());
  }
  Minutes latest{0};
  for (std::size_t i = 1; i < captures.size(); ++i) {
    latest = std::max(latest, captures[i].end());
  }
  // Push the first capture past every sibling's minimum completion: the
  // siblings may already have finished, so the schedule is cyberphysically
  // unsound (constraint 14) and nothing else about it changed.
  captures.front().start = latest + Minutes{1};
  const auto diagnostics =
      certify(mutated, bench.assay, bench.report.transport);
  EXPECT_TRUE(only_code(diagnostics, diag::codes::kStartAfterIndeterminate))
      << render(diagnostics);
}

}  // namespace
}  // namespace cohls::schedule
