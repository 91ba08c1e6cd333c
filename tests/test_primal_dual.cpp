// Tests for Algorithm 1 (primal-dual) and the exact DP oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "core/exact_dp.hpp"
#include "core/primal_dual.hpp"
#include "model/feasibility.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo::core {
namespace {

/// Small random instance suitable for the exact DP (K <= 8).
model::ProblemInstance small_instance(std::uint64_t seed,
                                      std::size_t contents = 5,
                                      std::size_t classes = 3,
                                      std::size_t horizon = 4,
                                      double beta = 2.0) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = contents;
  scenario.classes_per_sbs = classes;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = beta;
  scenario.workload.rank_swaps_per_slot = 1;
  return scenario.build();
}

HorizonProblem as_problem(const model::ProblemInstance& instance) {
  HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;
  return problem;
}

TEST(PrimalDual, ProducesFeasibleSchedule) {
  const auto instance = small_instance(3);
  const auto problem = as_problem(instance);
  const auto solution = PrimalDualSolver().solve(problem);
  ASSERT_EQ(solution.schedule.size(), instance.horizon());
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   solution.schedule[t], 1e-5))
        << "slot " << t;
  }
}

TEST(PrimalDual, BoundsAreOrdered) {
  const auto instance = small_instance(4);
  const auto solution = PrimalDualSolver().solve(as_problem(instance));
  EXPECT_LE(solution.lower_bound, solution.upper_bound + 1e-9);
  EXPECT_GE(solution.gap(), 0.0);
  EXPECT_GE(solution.iterations, 1u);
}

TEST(PrimalDual, UpperBoundMatchesScheduleCost) {
  const auto instance = small_instance(5);
  const auto solution = PrimalDualSolver().solve(as_problem(instance));
  const auto cost =
      model::schedule_cost(instance.config, instance.demand,
                           solution.schedule, instance.initial_cache);
  EXPECT_NEAR(cost.total(), solution.upper_bound, 1e-9);
}

TEST(PrimalDual, DeterministicAcrossRuns) {
  const auto instance = small_instance(6);
  const auto a = PrimalDualSolver().solve(as_problem(instance));
  const auto b = PrimalDualSolver().solve(as_problem(instance));
  EXPECT_DOUBLE_EQ(a.upper_bound, b.upper_bound);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
}

TEST(PrimalDual, ValidatesProblem) {
  HorizonProblem empty;
  EXPECT_THROW(PrimalDualSolver().solve(empty), InvalidArgument);
}

TEST(PrimalDual, OptionValidation) {
  PrimalDualOptions options;
  options.max_iterations = 0;
  EXPECT_THROW(PrimalDualSolver{options}, InvalidArgument);
  options = {};
  options.epsilon = 0.0;
  EXPECT_THROW(PrimalDualSolver{options}, InvalidArgument);
  options = {};
  options.step_alpha = -1.0;
  EXPECT_THROW(PrimalDualSolver{options}, InvalidArgument);
}

TEST(PrimalDual, MuLayoutHelpers) {
  const auto instance = small_instance(10);
  const std::size_t per_slot = mu_size(instance.config, 1);
  EXPECT_EQ(per_slot, instance.config.total_classes() *
                          instance.config.num_contents);
  EXPECT_EQ(mu_size(instance.config, 4), 4 * per_slot);
}

/// Property: the primal-dual upper bound is within a few percent of the
/// exact DP optimum, and the lower bound does not exceed it.
class PrimalDualVsExactTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrimalDualVsExactTest, CloseToExactOptimum) {
  const auto instance = small_instance(GetParam());
  const auto problem = as_problem(instance);

  PrimalDualOptions options;
  options.max_iterations = 60;
  const auto pd = PrimalDualSolver(options).solve(problem);
  const auto exact = solve_joint_exact(problem);

  // Exact DP is the ground truth: PD is an upper bound on it, its dual is
  // a lower bound (small tolerances absorb the inner FISTA accuracy).
  EXPECT_GE(pd.upper_bound, exact.objective - 1e-4);
  EXPECT_LE(pd.lower_bound, exact.objective + 1e-4);
  EXPECT_LE(pd.upper_bound, exact.objective * 1.05 + 1e-6)
      << "primal-dual more than 5% above the exact optimum";
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PrimalDualVsExactTest,
                         ::testing::Range<std::uint64_t>(20, 32));

// ------------------------------------------------------- statelessness ----

/// One leg of the statelessness check: demand representation x P2 regime
/// (omega_sbs_factor 0 selects the exact P2, > 0 the FISTA P2, whose
/// iterates depend on where they start).
struct StatelessCase {
  const char* name;
  bool sparse;
  double omega_sbs_factor;
};

void PrintTo(const StatelessCase& leg, std::ostream* os) { *os << leg.name; }

class StatelessSolve : public ::testing::TestWithParam<StatelessCase> {
 protected:
  /// Two-SBS instance in the leg's representation and P2 regime.
  static model::ProblemInstance instance_for(const StatelessCase& leg) {
    workload::PaperScenario scenario;
    scenario.seed = 31;
    scenario.num_sbs = 2;
    scenario.num_contents = 8;
    scenario.classes_per_sbs = 2;
    scenario.horizon = 7;
    scenario.cache_capacity = 2;
    scenario.bandwidth = 3.0;
    scenario.beta = 2.0;
    scenario.omega_sbs_factor = leg.omega_sbs_factor;
    return leg.sparse ? scenario.build_sparse() : scenario.build();
  }

  /// Points `problem` at the perfectly predicted window [tau, tau + w),
  /// stored in `dense` or `sparse` by the leg's representation.
  static void predict_window(const StatelessCase& leg,
                             const model::ProblemInstance& instance,
                             std::size_t tau, std::size_t w,
                             model::DemandTrace& dense,
                             model::SparseDemandTrace& sparse,
                             HorizonProblem& problem) {
    problem.config = &instance.config;
    if (leg.sparse) {
      sparse = workload::PerfectPredictor(instance.sparse_demand)
                   .predict_window_sparse(tau, w);
      problem.sparse_demand = &sparse;
    } else {
      dense = workload::PerfectPredictor(instance.demand)
                  .predict_window(tau, w);
      problem.demand = &dense;
    }
  }

  static void expect_bitwise_equal(const HorizonSolution& got,
                                   const HorizonSolution& want,
                                   const model::NetworkConfig& config) {
    EXPECT_EQ(got.upper_bound, want.upper_bound);
    EXPECT_EQ(got.lower_bound, want.lower_bound);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.mu, want.mu);
    ASSERT_EQ(got.schedule.size(), want.schedule.size());
    for (std::size_t t = 0; t < want.schedule.size(); ++t) {
      EXPECT_TRUE(got.schedule[t].cache == want.schedule[t].cache) << t;
      for (std::size_t n = 0; n < config.num_sbs(); ++n) {
        EXPECT_EQ(got.schedule[t].load.sbs_data(n),
                  want.schedule[t].load.sbs_data(n))
            << "slot " << t << " sbs " << n;
      }
    }
  }
};

/// A solve is a pure function of its problem: window B solved on a solver
/// that first solved a different, longer window A must be bitwise the
/// solve of B on a fresh solver — schedule, bounds, iterations and mu.
TEST_P(StatelessSolve, EarlierWindowLeavesNoTrace) {
  const StatelessCase& leg = GetParam();
  const auto instance = instance_for(leg);
  model::DemandTrace dense_a, dense_b;
  model::SparseDemandTrace sparse_a, sparse_b;
  HorizonProblem a, b;
  predict_window(leg, instance, 0, 4, dense_a, sparse_a, a);
  predict_window(leg, instance, 1, 3, dense_b, sparse_b, b);
  a.initial_cache = instance.initial_cache;

  PrimalDualSolver used;
  const HorizonSolution first = used.solve(a);
  // B starts where A's plan leaves the cache, as the next RHC window does.
  b.initial_cache = first.schedule.front().cache;
  expect_bitwise_equal(used.solve(b), PrimalDualSolver().solve(b),
                       instance.config);
}

/// The solver keeps its per-SBS P1 networks across solves. Window C gives
/// SBS 1 no demand and an empty cache, so in sparse mode its P1 content
/// union is empty; the network SBS 1 kept from window A must not leak into
/// C, and it must be rebuilt cleanly when window A comes back.
TEST_P(StatelessSolve, EmptyP1UnionAfterNonEmptyWindow) {
  const StatelessCase& leg = GetParam();
  const auto instance = instance_for(leg);
  const auto& config = instance.config;
  model::DemandTrace dense_a, dense_c;
  model::SparseDemandTrace sparse_a, sparse_c;
  HorizonProblem a, c;
  predict_window(leg, instance, 0, 4, dense_a, sparse_a, a);
  predict_window(leg, instance, 1, 3, dense_c, sparse_c, c);
  a.initial_cache = instance.initial_cache;
  const model::SparseSlotDemand zero_sparse =
      model::make_zero_sparse_slot_demand(config);
  const model::SlotDemand zero_dense = model::make_zero_slot_demand(config);
  for (std::size_t t = 0; t < c.horizon(); ++t) {
    if (leg.sparse) {
      sparse_c.slot(t)[1] = zero_sparse[1];
    } else {
      dense_c.slot(t)[1] = zero_dense[1];
    }
  }

  PrimalDualSolver used;
  const HorizonSolution first = used.solve(a);
  c.initial_cache = first.schedule.front().cache;
  for (std::size_t k = 0; k < config.num_contents; ++k) {
    c.initial_cache.set(1, k, false);
  }
  if (leg.sparse) {
    ASSERT_FALSE(build_active_sets(config, sparse_a, a.initial_cache)
                     .p1_list[1]
                     .empty());
    ASSERT_TRUE(build_active_sets(config, sparse_c, c.initial_cache)
                    .p1_list[1]
                    .empty());
  }
  expect_bitwise_equal(used.solve(c), PrimalDualSolver().solve(c), config);
  expect_bitwise_equal(used.solve(a), PrimalDualSolver().solve(a), config);
}

// The "primal_dual" prefix keeps these in the TSan CI leg's -R filter.
INSTANTIATE_TEST_SUITE_P(
    primal_dual, StatelessSolve,
    ::testing::Values(StatelessCase{"dense_exact", false, 0.0},
                      StatelessCase{"dense_fista", false, 0.1},
                      StatelessCase{"sparse_exact", true, 0.0},
                      StatelessCase{"sparse_fista", true, 0.1}),
    [](const ::testing::TestParamInfo<StatelessCase>& param_info) {
      return std::string(param_info.param.name);
    });

// ------------------------------------------------------------- exact DP ----

TEST(ExactDp, MatchesScheduleReevaluation) {
  const auto instance = small_instance(11);
  const auto problem = as_problem(instance);
  const auto exact = solve_joint_exact(problem);
  const auto cost =
      model::schedule_cost(instance.config, instance.demand, exact.schedule,
                           instance.initial_cache);
  EXPECT_NEAR(cost.total(), exact.objective, 1e-5);
}

TEST(ExactDp, ScheduleIsFeasible) {
  const auto instance = small_instance(12);
  const auto problem = as_problem(instance);
  const auto exact = solve_joint_exact(problem);
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   exact.schedule[t], 1e-5));
  }
}

TEST(ExactDp, RefusesHugeCatalogues) {
  workload::PaperScenario scenario;
  scenario.num_contents = 25;  // 2^25 subsets: must refuse
  scenario.horizon = 2;
  scenario.classes_per_sbs = 2;
  const auto instance = scenario.build();
  EXPECT_THROW(solve_joint_exact(as_problem(instance)), InvalidArgument);
}

TEST(ExactDp, ZeroBetaCachesGreedily) {
  // With beta = 0, each slot independently caches the best set; the DP
  // must reach at least the quality of any fixed cache.
  const auto instance = small_instance(13, 4, 2, 3, /*beta=*/0.0);
  const auto problem = as_problem(instance);
  const auto exact = solve_joint_exact(problem);
  const auto pd = PrimalDualSolver().solve(problem);
  EXPECT_LE(exact.objective, pd.upper_bound + 1e-6);
}

}  // namespace
}  // namespace mdo::core
