// Cooperative cancellation end to end: token semantics, the branch-and-bound
// node loop and root dive, and the synthesis flow's layer / iteration
// checkpoints.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "milp/bounds.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/dive.hpp"
#include "util/cancellation.hpp"

namespace cohls {
namespace {

TEST(CancellationToken, DefaultTokenIsInert) {
  CancellationToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("anything"));
}

TEST(CancellationToken, StopRequestPropagatesToAllTokens) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = source.token();
  EXPECT_TRUE(a.can_cancel());
  EXPECT_FALSE(a.cancelled());
  source.request_stop();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_THROW(a.check("solve"), CancelledError);
}

TEST(CancellationToken, DeadlineFires) {
  CancellationSource source;
  CancellationToken token = source.token_with_deadline(0.005);
  // May or may not be cancelled immediately; must be after the deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationToken, NonPositiveDeadlineMeansNone) {
  CancellationSource source;
  CancellationToken token = source.token_with_deadline(0.0);
  EXPECT_FALSE(token.cancelled());
}

/// An equality knapsack with all-even weights and an odd target: integral
/// infeasible, but every LP relaxation is feasible, so branch-and-bound
/// must explore an exponential tree to prove it. Intractable at n = 40 —
/// unless cancellation stops it.
milp::MilpModel hard_model(int n) {
  milp::MilpModel model;
  std::vector<lp::Term> terms;
  for (int i = 0; i < n; ++i) {
    const lp::Col x = model.add_binary(/*objective=*/1.0);
    terms.push_back({x, 2.0});
  }
  model.add_constraint(terms, lp::RowSense::Equal, static_cast<double>(n) + 1.0);
  return model;
}

TEST(Cancellation, PreCancelledTokenStopsBranchAndBoundBeforeAnyNode) {
  CancellationSource source;
  source.request_stop();
  milp::MilpOptions options;
  options.max_nodes = 0;  // unlimited
  options.time_limit_seconds = 0.0;
  options.cancel = source.token();
  const milp::MilpSolution solution = milp::solve_milp(hard_model(40), options);
  EXPECT_TRUE(solution.milp_cancelled);
  EXPECT_EQ(solution.status, milp::MilpStatus::NoSolution);
  EXPECT_EQ(solution.milp_nodes, 0);
}

TEST(Cancellation, DeadlineStopsLongBranchAndBoundSolve) {
  // Without the token this solve would effectively never finish; the test
  // terminating at all is the point.
  CancellationSource source;
  milp::MilpOptions options;
  options.max_nodes = 0;  // unlimited
  options.time_limit_seconds = 0.0;
  options.cancel = source.token_with_deadline(0.05);
  const milp::MilpSolution solution = milp::solve_milp(hard_model(40), options);
  EXPECT_TRUE(solution.milp_cancelled);
  EXPECT_GT(solution.milp_nodes, 0);
}

TEST(Cancellation, CrossThreadStopRequestStopsSolver) {
  CancellationSource source;
  milp::MilpOptions options;
  options.max_nodes = 0;
  options.time_limit_seconds = 0.0;
  options.cancel = source.token();
  std::thread stopper([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.request_stop();
  });
  const milp::MilpSolution solution = milp::solve_milp(hard_model(40), options);
  stopper.join();
  EXPECT_TRUE(solution.milp_cancelled);
}

TEST(Cancellation, RootDiveStopsAfterTheReSolveThatFiresTheToken) {
  // Six binaries the relaxation leaves at 0.5 until fixed: uninterrupted,
  // the dive fixes one per re-solve and reaches an integral point after six.
  constexpr int kColumns = 6;
  constexpr long kFiringResolve = 3;
  milp::MilpModel model;
  for (int i = 0; i < kColumns; ++i) {
    (void)model.add_binary(/*objective=*/1.0);
  }
  std::vector<double> lower(kColumns, 0.0);
  std::vector<double> upper(kColumns, 1.0);
  auto relaxation = [&lower, &upper] {
    lp::LpSolution relax;
    relax.status = lp::LpStatus::Optimal;
    for (std::size_t c = 0; c < lower.size(); ++c) {
      relax.values.push_back(lower[c] == upper[c] ? lower[c] : 0.5);
    }
    return relax;
  };
  CancellationSource source;
  const CancellationToken token = source.token();
  long resolves = 0;
  milp::DiveHooks hooks;
  hooks.lower = &lower;
  hooks.upper = &upper;
  hooks.set_bounds = [&lower, &upper](lp::Col c, double lo, double hi) {
    lower[static_cast<std::size_t>(c)] = lo;
    upper[static_cast<std::size_t>(c)] = hi;
  };
  hooks.resolve = [&] {
    if (++resolves == kFiringResolve) {
      source.request_stop();
    }
    return relaxation();
  };
  hooks.stop = [&token] { return token.cancelled(); };
  const milp::DiveResult result =
      milp::dive_for_incumbent(model, hooks, relaxation(), 1e-6, 1e-5, /*max_lp_solves=*/100);
  EXPECT_EQ(result.lp_solves, kFiringResolve);
  EXPECT_EQ(resolves, kFiringResolve);
  EXPECT_FALSE(result.found);
}

/// A bound provider that proves nothing and fires the token the first time
/// the search evaluates it — at the root node, before the root LP and dive.
class CancelAtRootBound final : public milp::NodeBoundProvider {
 public:
  explicit CancelAtRootBound(CancellationSource& source) : source_(source) {}
  [[nodiscard]] double objective_lower_bound(const std::vector<double>& /*lower*/,
                                             const std::vector<double>& /*upper*/) const override {
    source_.request_stop();
    return -std::numeric_limits<double>::infinity();
  }

 private:
  CancellationSource& source_;
};

TEST(Cancellation, RootDiveSeesATokenFiredAtTheRootNode) {
  CancellationSource source;
  milp::MilpOptions options;
  options.max_nodes = 0;
  options.time_limit_seconds = 0.0;
  options.cancel = source.token();
  options.bounds = std::make_shared<CancelAtRootBound>(source);
  const milp::MilpSolution solution = milp::solve_milp(hard_model(40), options);
  EXPECT_TRUE(solution.milp_cancelled);
  EXPECT_EQ(solution.status, milp::MilpStatus::NoSolution);
  EXPECT_EQ(solution.milp_nodes, 1);
  // The root relaxation is fractional, so the dive starts, but its first
  // budget poll sees the fired token and it re-solves nothing.
  EXPECT_EQ(solution.milp_dive_lp_solves, 0);
}

TEST(Cancellation, SynthesisThrowsCancelledError) {
  CancellationSource source;
  source.request_stop();
  core::SynthesisOptions options;
  options.cancel = source.token();
  const model::Assay assay = assays::kinase_activity_assay();
  EXPECT_THROW((void)core::synthesize(assay, options), CancelledError);
}

TEST(Cancellation, UncancelledSynthesisStillSucceeds) {
  CancellationSource source;
  core::SynthesisOptions options;
  options.cancel = source.token();
  const model::Assay assay = assays::kinase_activity_assay();
  const core::SynthesisReport report = core::synthesize(assay, options);
  EXPECT_FALSE(report.result.layers.empty());
}

}  // namespace
}  // namespace cohls
