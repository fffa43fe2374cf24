// One const Assay read by several threads at once, as fleet missions and
// batch jobs do: the flat graph has no lazily built index, so concurrent
// walks and syntheses need no lock and see the same graph (run under TSan
// in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/objective.hpp"

namespace cohls::engine {
namespace {

/// A digest of every parent, child and edge the assay's views yield.
std::uint64_t walk(const model::Assay& assay) {
  std::uint64_t digest = 1469598103934665603ULL;
  const auto mix = [&digest](std::int64_t value) {
    digest = (digest ^ static_cast<std::uint64_t>(value)) * 1099511628211ULL;
  };
  for (const model::Operation& op : assay.operations()) {
    for (const EdgeId edge : op.parent_edges()) {
      mix(edge.value());
      mix(assay.edge_parent(edge).value());
    }
    for (const EdgeId edge : assay.child_edges(op.id())) {
      mix(assay.edge_child(edge).value());
    }
    for (const OperationId child : assay.children(op.id())) {
      mix(child.value());
    }
  }
  return digest;
}

TEST(SharedAssay, ConcurrentReadersSeeOneGraph) {
  const model::Assay assay = assays::rt_qpcr_assay();
  const std::uint64_t expected = walk(assay);
  core::SynthesisOptions options;
  options.engine.enable_ilp = false;
  const double objective =
      schedule::evaluate_objective(core::synthesize(assay, options).result, assay,
                                   options.costs)
          .weighted_total;

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> digests(kThreads, 0);
  std::vector<double> objectives(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        digests[static_cast<std::size_t>(t)] = walk(assay);
      }
      const core::SynthesisReport report = core::synthesize(assay, options);
      objectives[static_cast<std::size_t>(t)] =
          schedule::evaluate_objective(report.result, assay, options.costs).weighted_total;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(digests[static_cast<std::size_t>(t)], expected) << "thread " << t;
    EXPECT_EQ(objectives[static_cast<std::size_t>(t)], objective) << "thread " << t;
  }
}

}  // namespace
}  // namespace cohls::engine
