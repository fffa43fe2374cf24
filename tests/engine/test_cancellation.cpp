// Cooperative cancellation end to end: token semantics, the branch-and-bound
// node loop, and the synthesis flow's layer / iteration checkpoints.
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

/// A bound provider that proves nothing and fires the token the first time
/// the search evaluates it — at the root node, before the root LP.
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

TEST(Cancellation, SearchStopsAtTheNextNodeAfterATokenFiredAtTheRoot) {
  CancellationSource source;
  milp::MilpOptions options;
  options.max_nodes = 0;
  options.time_limit_seconds = 0.0;
  options.cancel = source.token();
  options.bounds = std::make_shared<CancelAtRootBound>(source);
  const milp::MilpSolution solution = milp::solve_milp(hard_model(40), options);
  EXPECT_TRUE(solution.milp_cancelled);
  EXPECT_EQ(solution.status, milp::MilpStatus::NoSolution);
  // The root finishes its LP and branches; the poll before the next node
  // sees the fired token.
  EXPECT_EQ(solution.milp_nodes, 1);
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
