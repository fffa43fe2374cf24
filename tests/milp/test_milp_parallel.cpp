// Parallel branch and bound: a work-stealing team of N workers runs the same
// search loop as a team of one and must be a pure acceleration of it. Status
// and optimal objective agree with threads == 1 on every instance; incumbent
// vectors may differ only when several optima tie or a budget truncates the
// search.
// These suites double as the TSan stress target for the parallel solver
// (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace cohls::milp {
namespace {

/// Random bounded MILPs in the same family as test_milp_parity.cpp, sized up
/// so the parallel team actually gets subtrees to steal.
MilpModel make_random_milp(std::uint64_t seed) {
  Rng rng{seed};
  MilpModel model;
  const int n = static_cast<int>(rng.uniform_int(4, 12));
  for (int j = 0; j < n; ++j) {
    const auto shape = rng.uniform_int(0, 3);
    if (shape == 0) {
      model.add_binary(static_cast<double>(rng.uniform_int(-5, 5)));
    } else if (shape == 1) {
      const int lb = static_cast<int>(rng.uniform_int(-3, 1));
      model.add_variable(VarKind::Continuous, lb, lb + rng.uniform_int(1, 6),
                         static_cast<double>(rng.uniform_int(-4, 4)));
    } else {
      const int lb = static_cast<int>(rng.uniform_int(-2, 1));
      model.add_variable(VarKind::Integer, lb, lb + rng.uniform_int(0, 5),
                         static_cast<double>(rng.uniform_int(-5, 5)));
    }
  }
  const int m = static_cast<int>(rng.uniform_int(1, 8));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense_draw = rng.uniform_int(0, 2);
    const auto sense = sense_draw == 0   ? lp::RowSense::LessEqual
                       : sense_draw == 1 ? lp::RowSense::GreaterEqual
                                         : lp::RowSense::Equal;
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.uniform_int(-10, 10)));
  }
  return model;
}

/// A deliberately branchy knapsack family: identical even weights against an
/// odd capacity keep every relaxation fractional, so the tree is deep enough
/// for stealing to happen.
MilpModel make_branchy_knapsack(int items, double capacity) {
  MilpModel model;
  std::vector<lp::Term> row;
  for (int i = 0; i < items; ++i) {
    row.emplace_back(model.add_binary(-1.0 - 0.01 * i), 2.0);
  }
  model.add_constraint(std::move(row), lp::RowSense::LessEqual, capacity);
  return model;
}

MilpOptions parallel_options(int threads) {
  MilpOptions options;
  options.threads = threads;
  options.time_limit_seconds = 0.0;  // node budgets only: deterministic work
  return options;
}

class MilpParallelParity : public ::testing::TestWithParam<int> {};

TEST_P(MilpParallelParity, FourWorkersAgreeWithSequential) {
  const MilpModel model =
      make_random_milp(static_cast<std::uint64_t>(GetParam()) * 69621 + 11);
  const MilpSolution seq = solve_milp(model, parallel_options(1));
  const MilpSolution par = solve_milp(model, parallel_options(4));
  ASSERT_EQ(par.status, seq.status)
      << to_string(par.status) << " vs " << to_string(seq.status);
  // Presolve can prove infeasibility before the worker team launches, in
  // which case the solve legitimately reports a team of one.
  EXPECT_EQ(par.milp_threads, par.milp_nodes > 0 ? 4 : 1);
  EXPECT_EQ(seq.milp_threads, 1);
  EXPECT_EQ(seq.milp_steals, 0);
  if (seq.status == MilpStatus::Optimal) {
    EXPECT_NEAR(par.objective, seq.objective, 1e-6);
    EXPECT_TRUE(model.is_feasible(par.values, 1e-5));
    EXPECT_NEAR(par.best_bound, seq.best_bound, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpParallelParity, ::testing::Range(0, 80));

TEST(MilpParallel, StealsAndWarmSolvesOnBranchyInstance) {
  const MilpModel model = make_branchy_knapsack(16, 13.0);
  const MilpSolution seq = solve_milp(model, parallel_options(1));
  const MilpSolution par = solve_milp(model, parallel_options(4));
  ASSERT_EQ(seq.status, MilpStatus::Optimal);
  ASSERT_EQ(par.status, MilpStatus::Optimal);
  EXPECT_NEAR(par.objective, seq.objective, 1e-6);
  EXPECT_GT(par.milp_nodes, 1);
  // The team genuinely shared the tree and kept warm-starting children.
  EXPECT_GT(par.milp_steals, 0);
  EXPECT_GT(par.milp_incumbent_updates, 0);
  EXPECT_GT(par.lp_warm_solves, 0);
  EXPECT_GE(par.milp_idle_seconds, 0.0);
}

TEST(MilpParallel, EqualNodeBudgetsAcrossWorkerCounts) {
  // On a truncated search every configuration must expand exactly the node
  // budget — the global counter, not wall clock, ends the search.
  const MilpModel model = make_branchy_knapsack(24, 21.0);
  for (const int threads : {1, 2, 4}) {
    MilpOptions options = parallel_options(threads);
    options.max_nodes = 40;
    options.enable_rounding_heuristic = false;  // keep the tree from closing early
    const MilpSolution sol = solve_milp(model, options);
    EXPECT_EQ(sol.milp_nodes, 40) << "threads " << threads;
    EXPECT_NE(sol.status, MilpStatus::Optimal) << "threads " << threads;
  }
}

TEST(MilpParallel, CancellationStopsAllWorkersPromptly) {
  const MilpModel model = make_branchy_knapsack(30, 29.0);
  CancellationSource source;
  MilpOptions options = parallel_options(4);
  options.max_nodes = 0;  // unbounded: only the token ends this search
  options.enable_rounding_heuristic = false;
  options.cancel = source.token();

  std::thread trigger([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    source.request_stop();
  });
  const auto begin = std::chrono::steady_clock::now();
  const MilpSolution sol = solve_milp(model, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  trigger.join();

  EXPECT_TRUE(sol.milp_cancelled);
  EXPECT_NE(sol.status, MilpStatus::Optimal);
  // Every worker polls the token per node; a cancelled solve must return in
  // token-poll time, not tree-exhaustion time.
  EXPECT_LT(elapsed, 5.0);
  if (sol.status == MilpStatus::Feasible) {
    EXPECT_TRUE(model.is_feasible(sol.values, 1e-5));
  }
}

TEST(MilpParallel, OneWorkerNeverStealsRacesOrIdles) {
  const MilpSolution sol =
      solve_milp(make_branchy_knapsack(10, 7.0), parallel_options(1));
  ASSERT_EQ(sol.status, MilpStatus::Optimal);
  EXPECT_EQ(sol.milp_threads, 1);
  EXPECT_EQ(sol.milp_steals, 0);
  EXPECT_EQ(sol.milp_incumbent_races, 0);
  EXPECT_EQ(sol.milp_idle_seconds, 0.0);
}

TEST(MilpParallelStress, RandomInstancesUnderContention) {
  // Deliberately oversubscribed relative to the instance sizes so workers
  // contend on the deques and the shared incumbent — the TSan target.
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const MilpModel model = make_random_milp(seed * 40503 + 3);
    MilpOptions options = parallel_options(4);
    const MilpSolution par = solve_milp(model, options);
    const MilpSolution seq = solve_milp(model, parallel_options(1));
    ASSERT_EQ(par.status, seq.status) << "seed " << seed;
    if (seq.status == MilpStatus::Optimal) {
      ASSERT_NEAR(par.objective, seq.objective, 1e-6) << "seed " << seed;
      ASSERT_TRUE(model.is_feasible(par.values, 1e-5)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cohls::milp
