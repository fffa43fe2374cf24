// Bound-driven search: validity of the combinatorial node bounds, dive
// incumbent certification, and exactness of the solver with bounds attached
// (sequential and parallel).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "lp/simplex.hpp"
#include "milp/bounds.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/dive.hpp"
#include "milp/model.hpp"
#include "util/rng.hpp"

namespace cohls::milp {
namespace {

/// A random disjunctive device-conflict scheduling MILP shaped like the
/// per-layer model: binding binaries with bind-once rows, integer starts,
/// big-M conflict disjunctions, a makespan epigraph, and per-use cost on the
/// device slots beyond the free prefix.
struct SchedulingInstance {
  MilpModel model;
  SchedulingBounds::Config config;
  lp::Col makespan = -1;
};

constexpr double kNewDeviceCost = 3.0;

SchedulingInstance make_scheduling(std::uint64_t seed, int tasks, int devices,
                                   int free_devices, int distinct = 0) {
  Rng rng{seed};
  SchedulingInstance out;
  std::vector<double> dur(static_cast<std::size_t>(tasks));
  std::vector<double> occ(static_cast<std::size_t>(tasks));
  double horizon = 0.0;
  for (int i = 0; i < tasks; ++i) {
    dur[static_cast<std::size_t>(i)] = static_cast<double>(rng.uniform_int(1, 4));
    occ[static_cast<std::size_t>(i)] =
        dur[static_cast<std::size_t>(i)] + static_cast<double>(rng.uniform_int(0, 2));
    horizon += occ[static_cast<std::size_t>(i)];
  }
  std::vector<lp::Col> used(static_cast<std::size_t>(devices), -1);
  for (int j = free_devices; j < devices; ++j) {
    used[static_cast<std::size_t>(j)] = out.model.add_binary(kNewDeviceCost);
  }
  std::vector<std::vector<lp::Col>> binding(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    std::vector<lp::Term> bind_once;
    for (int j = 0; j < devices; ++j) {
      const lp::Col col = out.model.add_binary(0.0);
      binding[static_cast<std::size_t>(i)].push_back(col);
      bind_once.emplace_back(col, 1.0);
      if (used[static_cast<std::size_t>(j)] >= 0) {
        out.model.add_constraint({{col, 1.0}, {used[static_cast<std::size_t>(j)], -1.0}},
                                 lp::RowSense::LessEqual, 0.0);
      }
    }
    out.model.add_constraint(std::move(bind_once), lp::RowSense::Equal, 1.0);
  }
  std::vector<lp::Col> start(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    start[static_cast<std::size_t>(i)] =
        out.model.add_variable(VarKind::Integer, 0.0, horizon, 0.0);
  }
  out.makespan = out.model.add_variable(VarKind::Continuous, 0.0, horizon, 1.0);
  for (int i = 0; i < tasks; ++i) {
    out.model.add_constraint(
        {{out.makespan, 1.0}, {start[static_cast<std::size_t>(i)], -1.0}},
        lp::RowSense::GreaterEqual, dur[static_cast<std::size_t>(i)]);
  }
  // The first `distinct` tasks must occupy pairwise-distinct devices (the
  // indeterminate parallel rule): at most one of them binds to any slot.
  for (int j = 0; distinct > 1 && j < devices; ++j) {
    std::vector<lp::Term> at_most_one;
    for (int i = 0; i < distinct; ++i) {
      at_most_one.emplace_back(
          binding[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0);
    }
    out.model.add_constraint(std::move(at_most_one), lp::RowSense::LessEqual, 1.0);
  }
  const double big_m = horizon + 1.0;
  for (int a = 0; a < tasks; ++a) {
    for (int b = a + 1; b < tasks; ++b) {
      const lp::Col q0 = out.model.add_binary(0.0);
      const lp::Col q1 = out.model.add_binary(0.0);
      const lp::Col q2 = out.model.add_binary(0.0);
      out.model.add_constraint({{start[static_cast<std::size_t>(a)], 1.0},
                                {q0, big_m},
                                {start[static_cast<std::size_t>(b)], -1.0}},
                               lp::RowSense::GreaterEqual,
                               occ[static_cast<std::size_t>(b)]);
      out.model.add_constraint({{start[static_cast<std::size_t>(a)], 1.0},
                                {q1, -big_m},
                                {start[static_cast<std::size_t>(b)], -1.0}},
                               lp::RowSense::LessEqual,
                               -occ[static_cast<std::size_t>(a)]);
      for (int j = 0; j < devices; ++j) {
        out.model.add_constraint({{binding[static_cast<std::size_t>(a)][static_cast<std::size_t>(j)], 1.0},
                                  {binding[static_cast<std::size_t>(b)][static_cast<std::size_t>(j)], 1.0},
                                  {q2, -1.0}},
                                 lp::RowSense::LessEqual, 1.0);
      }
      out.model.add_constraint({{q0, 1.0}, {q1, 1.0}, {q2, 1.0}},
                               lp::RowSense::LessEqual, 2.0);
    }
  }

  for (int i = 0; i < tasks; ++i) {
    SchedulingBounds::Task task;
    task.start = start[static_cast<std::size_t>(i)];
    task.occupation = occ[static_cast<std::size_t>(i)];
    task.duration = dur[static_cast<std::size_t>(i)];
    task.binding = binding[static_cast<std::size_t>(i)];
    out.config.tasks.push_back(std::move(task));
  }
  out.config.makespan = out.makespan;
  out.config.makespan_weight = 1.0;
  out.config.free_devices = free_devices;
  out.config.new_devices = devices - free_devices;
  out.config.min_new_device_cost = kNewDeviceCost;
  for (int j = free_devices; j < devices; ++j) {
    out.config.new_device_cols.push_back(used[static_cast<std::size_t>(j)]);
  }
  if (distinct > 0) {
    out.config.task_new_cost.assign(static_cast<std::size_t>(tasks), kNewDeviceCost);
    for (int i = 0; i < distinct; ++i) {
      out.config.distinct_tasks.push_back(i);
    }
    out.config.free_slot_mask =
        free_devices >= 64 ? ~DeviceMask{0} : (DeviceMask{1} << free_devices) - 1;
  }
  out.config.objective.resize(static_cast<std::size_t>(out.model.variable_count()));
  for (lp::Col c = 0; c < out.model.variable_count(); ++c) {
    out.config.objective[static_cast<std::size_t>(c)] =
        out.model.lp().objective_coefficient(c);
  }
  return out;
}

SchedulingInstance make_from_seed(std::uint64_t seed) {
  Rng shape{seed * 977 + 5};
  const int tasks = static_cast<int>(shape.uniform_int(2, 5));
  const int devices = static_cast<int>(shape.uniform_int(2, 3));
  const int free_devices = static_cast<int>(shape.uniform_int(1, devices));
  // Every other seed carries a pairwise-distinct set so the task-level cost
  // floors (and their free-slot escapes) are exercised alongside plain runs.
  const int distinct =
      seed % 2 == 0 ? 0
                    : static_cast<int>(shape.uniform_int(0, std::min(tasks, devices)));
  return make_scheduling(seed, tasks, devices, free_devices, distinct);
}

std::vector<double> root_lower(const MilpModel& model) {
  std::vector<double> out(static_cast<std::size_t>(model.variable_count()));
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    out[static_cast<std::size_t>(c)] = model.lp().lower_bound(c);
  }
  return out;
}

std::vector<double> root_upper(const MilpModel& model) {
  std::vector<double> out(static_cast<std::size_t>(model.variable_count()));
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    out[static_cast<std::size_t>(c)] = model.lp().upper_bound(c);
  }
  return out;
}

class SchedulingBoundValidity : public ::testing::TestWithParam<int> {};

// The combinatorial root bound never exceeds the proven optimum, and a
// solve with the provider attached reaches exactly the same optimum.
TEST_P(SchedulingBoundValidity, RootBoundIsAdmissibleAndPreservesExactness) {
  const auto instance = make_from_seed(static_cast<std::uint64_t>(GetParam()));
  const auto provider = std::make_shared<SchedulingBounds>(instance.config);

  const auto reference = solve_milp(instance.model);
  ASSERT_EQ(reference.status, MilpStatus::Optimal);

  const double root_bound =
      provider->objective_lower_bound(root_lower(instance.model), root_upper(instance.model));
  EXPECT_LE(root_bound, reference.objective + 1e-6)
      << "combinatorial bound overshoots the true optimum";
  EXPECT_GT(root_bound, -std::numeric_limits<double>::infinity());

  MilpOptions with_bounds;
  with_bounds.bounds = provider;
  const auto bounded = solve_milp(instance.model, with_bounds);
  ASSERT_EQ(bounded.status, MilpStatus::Optimal);
  EXPECT_NEAR(bounded.objective, reference.objective, 1e-6);
  EXPECT_TRUE(instance.model.is_feasible(bounded.values, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingBoundValidity, ::testing::Range(0, 40));

class SchedulingBoundMonotonicity : public ::testing::TestWithParam<int> {};

// makespan_bound relaxes as devices are added; min_devices_for_deadline
// relaxes as the deadline grows; and with the full device set the makespan
// bound is admissible against the proven optimal makespan.
TEST_P(SchedulingBoundMonotonicity, DeviceAndDeadlineDirectionsAreMonotone) {
  const auto instance = make_from_seed(static_cast<std::uint64_t>(GetParam()) + 1000);
  const SchedulingBounds provider(instance.config);
  const auto lower = root_lower(instance.model);
  const auto upper = root_upper(instance.model);
  const int devices = instance.config.free_devices + instance.config.new_devices;

  double previous = std::numeric_limits<double>::infinity();
  for (int d = 1; d <= devices; ++d) {
    const double bound = provider.makespan_bound(lower, upper, d);
    EXPECT_LE(bound, previous + 1e-9) << "more devices must not worsen the bound";
    previous = bound;
  }

  const auto reference = solve_milp(instance.model);
  ASSERT_EQ(reference.status, MilpStatus::Optimal);
  const double optimal_makespan =
      reference.values[static_cast<std::size_t>(instance.makespan)];
  EXPECT_LE(provider.makespan_bound(lower, upper, devices), optimal_makespan + 1e-6);

  int previous_devices = devices + 2;
  for (double deadline = 0.0; deadline <= upper[static_cast<std::size_t>(
                                  instance.makespan)] + 1.0;
       deadline += 1.0) {
    const int needed = provider.min_devices_for_deadline(lower, upper, deadline);
    EXPECT_LE(needed, previous_devices) << "a later deadline must not need more devices";
    previous_devices = needed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingBoundMonotonicity, ::testing::Range(0, 20));

// --- wide masks ------------------------------------------------------------

// Device masks are 64-bit: a 40-slot instance must carry allowed-device bits
// past the 32-bit boundary through window derivation, the energetic grouping,
// and the distinct-task free-slot escape. A 32-bit mask would wrap slot 39
// onto slot 7 — silently freeing pinned high slots and collapsing the bound.
TEST(SchedulingWideMasks, FortySlotInstanceTracksHighMaskBits) {
  constexpr int kTasks = 3;
  constexpr int kDevices = 40;
  constexpr int kFree = 36;  // free slots 0..35 straddle the 32-bit boundary
  constexpr double kDuration = 3.0;
  constexpr double kOccupation = 4.0;
  const double horizon = kTasks * kOccupation;

  MilpModel model;
  SchedulingBounds::Config config;
  std::vector<std::vector<lp::Col>> binding(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    for (int j = 0; j < kDevices; ++j) {
      binding[static_cast<std::size_t>(i)].push_back(model.add_binary(0.0));
    }
  }
  for (int i = 0; i < kTasks; ++i) {
    SchedulingBounds::Task task;
    task.start = model.add_variable(VarKind::Integer, 0.0, horizon, 0.0);
    task.occupation = kOccupation;
    task.duration = kDuration;
    task.binding = binding[static_cast<std::size_t>(i)];
    config.tasks.push_back(std::move(task));
  }
  config.makespan = model.add_variable(VarKind::Continuous, 0.0, horizon, 1.0);
  config.makespan_weight = 1.0;
  config.free_devices = kFree;
  config.new_devices = kDevices - kFree;
  config.min_new_device_cost = kNewDeviceCost;
  config.task_new_cost.assign(kTasks, kNewDeviceCost);
  config.distinct_tasks = {0, 1, 2};
  config.free_slot_mask = (DeviceMask{1} << kFree) - 1;
  config.objective.resize(static_cast<std::size_t>(model.variable_count()));
  for (lp::Col c = 0; c < model.variable_count(); ++c) {
    config.objective[static_cast<std::size_t>(c)] =
        model.lp().objective_coefficient(c);
  }
  const SchedulingBounds provider(config);

  // Unpinned: forty slots host three tasks in parallel, every distinct task
  // reaches a free slot, so both bounds collapse to the bare duration.
  const auto lower = root_lower(model);
  const auto upper = root_upper(model);
  EXPECT_NEAR(provider.makespan_bound(lower, upper, kDevices), kDuration, 1e-9);
  EXPECT_NEAR(provider.objective_lower_bound(lower, upper), kDuration, 1e-9);
  EXPECT_EQ(provider.min_devices_for_deadline(lower, upper, kDuration), kTasks);

  // Pin tasks 1 and 2 to the two highest slots (38 and 39, both NEW slots).
  // Their device payments can no longer escape to a free slot: the distinct
  // floor is two task costs, and the cheapest device count is u = 38 —
  // makespan 3 plus max(floor, 2 paid slots) * cost.
  auto pinned_lower = lower;
  pinned_lower[static_cast<std::size_t>(binding[1][38])] = 1.0;
  pinned_lower[static_cast<std::size_t>(binding[2][39])] = 1.0;
  EXPECT_NEAR(provider.makespan_bound(pinned_lower, upper, kDevices), kDuration,
              1e-9);
  EXPECT_NEAR(provider.objective_lower_bound(pinned_lower, upper),
              kDuration + 2.0 * kNewDeviceCost, 1e-9);

  // Pin all three tasks onto slot 39: one slot, occupation-serialized. The
  // energetic bound must see a single-device group at bit 39.
  auto serial_lower = lower;
  for (int i = 0; i < kTasks; ++i) {
    serial_lower[static_cast<std::size_t>(
        binding[static_cast<std::size_t>(i)][39])] = 1.0;
  }
  EXPECT_NEAR(provider.makespan_bound(serial_lower, upper, kDevices),
              2.0 * kOccupation + kDuration, 1e-9);
}

// --- dive ------------------------------------------------------------------

struct RandomMilpForDive {
  MilpModel model;
};

RandomMilpForDive make_random_mip(std::uint64_t seed) {
  Rng rng{seed};
  RandomMilpForDive out;
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  for (int j = 0; j < n; ++j) {
    const int lb = static_cast<int>(rng.uniform_int(-2, 0));
    const int ub = lb + static_cast<int>(rng.uniform_int(1, 5));
    out.model.add_variable(VarKind::Integer, lb, ub,
                           static_cast<double>(rng.uniform_int(-4, 4)));
  }
  const int m = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      const auto coef = rng.uniform_int(-3, 3);
      if (coef != 0) {
        terms.emplace_back(j, static_cast<double>(coef));
      }
    }
    const auto sense = rng.uniform_int(0, 1) == 0 ? lp::RowSense::LessEqual
                                                  : lp::RowSense::GreaterEqual;
    out.model.add_constraint(std::move(terms), sense,
                             static_cast<double>(rng.uniform_int(-6, 6)));
  }
  return out;
}

class DiveCertification : public ::testing::TestWithParam<int> {};

// Whatever point the dive claims is always LP- and integrality-feasible for
// the model it dived, with a correctly reported objective.
TEST_P(DiveCertification, DiveIncumbentAlwaysCertifies) {
  const auto instance = make_random_mip(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  lp::LpModel box = instance.model.lp();
  std::vector<double> lower(static_cast<std::size_t>(box.variable_count()));
  std::vector<double> upper(static_cast<std::size_t>(box.variable_count()));
  for (lp::Col c = 0; c < box.variable_count(); ++c) {
    lower[static_cast<std::size_t>(c)] = box.lower_bound(c);
    upper[static_cast<std::size_t>(c)] = box.upper_bound(c);
  }
  DiveHooks hooks;
  hooks.resolve = [&box] { return lp::solve_lp(box); };
  hooks.set_bounds = [&](lp::Col c, double lo, double hi) {
    box.set_bounds(c, lo, hi);
    lower[static_cast<std::size_t>(c)] = lo;
    upper[static_cast<std::size_t>(c)] = hi;
  };
  hooks.lower = &lower;
  hooks.upper = &upper;

  const auto root = lp::solve_lp(box);
  if (root.status != lp::LpStatus::Optimal) {
    return;  // nothing to dive from
  }
  const auto result = dive_for_incumbent(instance.model, hooks, root,
                                         /*integrality_tolerance=*/1e-6,
                                         /*feasibility_tolerance=*/1e-6,
                                         /*max_lp_solves=*/64);
  if (!result.found) {
    return;
  }
  EXPECT_TRUE(instance.model.is_feasible(result.values, 1e-6));
  EXPECT_NEAR(result.objective, instance.model.lp().objective_value(result.values), 1e-9);

  // Soundness: a dive incumbent can never beat the proven optimum.
  const auto exact = solve_milp(instance.model);
  ASSERT_EQ(exact.status, MilpStatus::Optimal);
  EXPECT_GE(result.objective, exact.objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiveCertification, ::testing::Range(0, 60));

// The dive is not vacuous: across the seed range it finds incumbents, and a
// solve that reports dive_found_incumbent matches the no-dive optimum.
TEST(DiveCertification, DiveFindsIncumbentsAndPreservesExactness) {
  int found = 0;
  for (int seed = 0; seed < 25; ++seed) {
    const auto instance = make_from_seed(static_cast<std::uint64_t>(seed) + 3000);
    MilpOptions with_dive;
    with_dive.bounds = std::make_shared<SchedulingBounds>(instance.config);
    MilpOptions no_dive = with_dive;
    no_dive.dive = false;
    const auto dived = solve_milp(instance.model, with_dive);
    const auto plain = solve_milp(instance.model, no_dive);
    ASSERT_EQ(dived.status, MilpStatus::Optimal);
    ASSERT_EQ(plain.status, MilpStatus::Optimal);
    EXPECT_NEAR(dived.objective, plain.objective, 1e-6);
    if (dived.milp_dive_found_incumbent) {
      ++found;
      EXPECT_GT(dived.milp_dive_lp_solves, 0);
    }
  }
  EXPECT_GT(found, 0) << "the root dive never fired across 25 scheduling instances";
}

}  // namespace
}  // namespace cohls::milp
