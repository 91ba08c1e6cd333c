// Tests for the compact active-coordinate mu layout (DESIGN.md §12) — the
// ONLY mu layout of every solve (dense windows are solved through their
// lossless sparse copy):
// mu_block_offsets geometry, compact<->dense scatter/gather round trips,
// solver- and controller-level bit-identity across thread counts, window
// sequence edge cases, and the count()-guarded binary reader.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/primal_dual.hpp"
#include "core/shard_core.hpp"
#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace mdo {
namespace {

/// A small truncated-Zipf instance whose active sets are a strict subset of
/// the catalogue (min_rate cuts the tail), so compact and dense mu layouts
/// genuinely differ in size.
model::ProblemInstance sparse_instance(std::size_t horizon = 6,
                                       std::size_t contents = 12) {
  workload::PaperScenario scenario;
  scenario.num_sbs = 2;
  scenario.num_contents = contents;
  scenario.classes_per_sbs = 3;
  scenario.cache_capacity = 3;
  scenario.bandwidth = 8.0;
  scenario.beta = 10.0;
  scenario.horizon = horizon;
  scenario.seed = 17;
  // Cut the Zipf tail at the rate of rank K/4, as the scaling bench does:
  // the surviving head is a strict subset, so compact != dense in size.
  const auto pmf = workload::zipf_mandelbrot_pmf(
      contents, scenario.workload.zipf_alpha, scenario.workload.zipf_q);
  scenario.workload.min_rate = pmf[contents / 4];
  return scenario.build_sparse();
}

/// Start of (slot t, SBS n) in the dense slot/SBS/class/content layout.
std::size_t dense_offset(const model::NetworkConfig& config, std::size_t t,
                         std::size_t n) {
  std::size_t offset = core::mu_size(config, t);
  for (std::size_t i = 0; i < n; ++i) {
    offset += config.sbs[i].num_classes() * config.num_contents;
  }
  return offset;
}

core::HorizonProblem window_problem(const model::ProblemInstance& instance) {
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &instance.sparse_demand;
  problem.initial_cache = instance.initial_cache;
  return problem;
}

// ---- geometry and round trips --------------------------------------------

TEST(CompactMu, BlockOffsetsMatchActiveSetGeometry) {
  const auto instance = sparse_instance();
  const auto sets = core::build_active_sets(
      instance.config, instance.sparse_demand, instance.initial_cache);
  const std::size_t horizon = instance.sparse_demand.horizon();
  const std::size_t num_sbs = instance.config.num_sbs();
  const auto offsets =
      core::mu_block_offsets(instance.config, horizon, sets);

  ASSERT_EQ(offsets.size(), horizon * num_sbs + 1);
  EXPECT_EQ(offsets.front(), 0u);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const std::size_t cell = t * num_sbs + n;
      const std::size_t block = offsets[cell + 1] - offsets[cell];
      EXPECT_EQ(block, instance.config.sbs[n].num_classes() *
                           sets.active[cell].size())
          << "cell=" << cell;
    }
  }
  // The truncated tail must actually shrink the compact vector.
  EXPECT_LT(offsets.back(), core::mu_size(instance.config, horizon));
}

TEST(CompactMu, CompactDenseRoundTripIsLossless) {
  const auto instance = sparse_instance();
  const auto sets = core::build_active_sets(
      instance.config, instance.sparse_demand, instance.initial_cache);
  const std::size_t horizon = instance.sparse_demand.horizon();
  const std::size_t num_sbs = instance.config.num_sbs();
  const std::size_t contents = instance.config.num_contents;
  const auto offsets =
      core::mu_block_offsets(instance.config, horizon, sets);

  // Distinct value per compact coordinate.
  linalg::Vec compact(offsets.back());
  for (std::size_t j = 0; j < compact.size(); ++j) {
    compact[j] = 1.0 + 0.25 * static_cast<double>(j);
  }

  // Scatter to the dense layout exactly as the wire/coordinator does
  // (class-major over the active list within each cell)...
  linalg::Vec dense(core::mu_size(instance.config, horizon), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const std::size_t cell = t * num_sbs + n;
      const auto& active = sets.active[cell];
      const std::size_t classes = instance.config.sbs[n].num_classes();
      const std::size_t base = dense_offset(instance.config, t, n);
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t i = 0; i < active.size(); ++i) {
          dense[base + m * contents + active[i]] =
              compact[offsets[cell] + m * active.size() + i];
        }
      }
    }
  }
  // ...and gather back: bitwise identical, nothing lost.
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const std::size_t cell = t * num_sbs + n;
      const auto& active = sets.active[cell];
      const std::size_t classes = instance.config.sbs[n].num_classes();
      const std::size_t base = dense_offset(instance.config, t, n);
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t i = 0; i < active.size(); ++i) {
          EXPECT_EQ(dense[base + m * contents + active[i]],
                    compact[offsets[cell] + m * active.size() + i]);
        }
      }
    }
  }
}

// ---- solver-level bit-identity -------------------------------------------

TEST(CompactMu, SolverBitIdenticalAcrossThreadsAndShards) {
  const auto instance = sparse_instance();
  const auto problem = window_problem(instance);
  const auto sets = core::build_active_sets(
      instance.config, instance.sparse_demand, instance.initial_cache);
  const auto offsets = core::mu_block_offsets(
      instance.config, instance.sparse_demand.horizon(), sets);

  core::PrimalDualSolver reference{core::PrimalDualOptions{}};
  const auto want = reference.solve(problem);
  // Solves always keep mu on the compact layout.
  EXPECT_EQ(want.mu.size(), offsets.back());
  EXPECT_LT(want.mu.size(), core::mu_size(instance.config,
                                          instance.sparse_demand.horizon()));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool::set_global_threads(threads);
    core::PrimalDualSolver solver{core::PrimalDualOptions{}};
    const auto got = solver.solve(problem);
    EXPECT_EQ(got.upper_bound, want.upper_bound) << "threads=" << threads;
    EXPECT_EQ(got.lower_bound, want.lower_bound) << "threads=" << threads;
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.mu.size(), offsets.back());
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(CompactMu, DenseDemandSolvesUseDenseLayout) {
  workload::PaperScenario scenario;
  scenario.num_sbs = 2;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 3;
  scenario.cache_capacity = 2;
  scenario.horizon = 3;
  scenario.seed = 9;
  const auto instance = scenario.build();

  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;

  core::PrimalDualOptions options;
  core::PrimalDualSolver solver(options);
  const auto solution = solver.solve(problem);
  // A dense window is solved through its lossless sparse copy, so mu is
  // compact here too; this demand has full support (every content is
  // active), so the compact vector spans the whole dense coordinate space.
  EXPECT_EQ(solution.mu.size(),
            core::mu_size(instance.config, instance.demand.horizon()));
}

// ---- controller-level bit-identity ---------------------------------------

double run_controller(bool chc, const model::ProblemInstance& instance,
                      const workload::Predictor& predictor,
                      std::size_t threads) {
  util::ThreadPool::set_global_threads(threads);
  const core::PrimalDualOptions pd;
  std::unique_ptr<online::Controller> controller;
  if (chc) {
    controller = std::make_unique<online::ChcController>(4, 2, pd);
  } else {
    controller = std::make_unique<online::RhcController>(4, pd);
  }
  const sim::Simulator simulator(instance, predictor);
  const auto result = simulator.run(*controller);
  util::ThreadPool::set_global_threads(1);
  EXPECT_TRUE(std::isfinite(result.total.total()));
  return result.total.total();
}

TEST(CompactMu, RhcBitIdenticalAcrossThreadsShards) {
  const auto instance = sparse_instance();
  const workload::NoisyPredictor predictor(instance.sparse_demand, 0.1, 1234);
  const double want = run_controller(false, instance, predictor, 1);
  EXPECT_EQ(run_controller(false, instance, predictor, 4), want);
}

TEST(CompactMu, ChcBitIdenticalAcrossThreadsShards) {
  const auto instance = sparse_instance();
  const workload::NoisyPredictor predictor(instance.sparse_demand, 0.1, 1234);
  const double want = run_controller(true, instance, predictor, 1);
  EXPECT_EQ(run_controller(true, instance, predictor, 4), want);
}

// ---- window sequence edge cases -------------------------------------------

TEST(CompactMu, AdvanceWindowEdgeCasesStayDeterministic) {
  // Two solvers fed the identical window sequence — slide by 1, jump past
  // the last window, horizon shrink at the end of the trace, grow again,
  // same-window replan — must stay bitwise in lockstep, and each solve must
  // equal a fresh solver's: the compact mu geometry changes with every
  // window, and nothing of an earlier window may leak into the next.
  const auto full = sparse_instance(/*horizon=*/6);
  const workload::PerfectPredictor predictor(full.sparse_demand);

  core::PrimalDualOptions options;  // sparse demand -> compact mu
  core::PrimalDualSolver a(options);
  core::PrimalDualSolver b(options);

  model::SparseDemandTrace window;
  core::HorizonProblem problem;
  problem.config = &full.config;
  problem.sparse_demand = &window;
  problem.initial_cache = full.initial_cache;

  const auto solve_both = [&](std::size_t tau, std::size_t length) {
    window = predictor.predict_window_sparse(tau, length);
    const auto got_a = a.solve(problem);
    const auto got_b = b.solve(problem);
    core::PrimalDualSolver fresh(options);
    const auto want = fresh.solve(problem);
    for (const auto* got : {&got_a, &got_b}) {
      EXPECT_EQ(got->upper_bound, want.upper_bound)
          << "tau=" << tau << " length=" << length;
      EXPECT_EQ(got->lower_bound, want.lower_bound);
      EXPECT_EQ(got->iterations, want.iterations);
      ASSERT_EQ(got->mu.size(), want.mu.size());
      for (std::size_t j = 0; j < want.mu.size(); ++j) {
        EXPECT_EQ(got->mu[j], want.mu[j]);
      }
    }
    EXPECT_EQ(got_a.schedule.size(), window.horizon());
    EXPECT_TRUE(std::isfinite(got_a.upper_bound));
  };

  solve_both(0, 3);
  solve_both(1, 3);
  // A window running past the end of the trace is clipped to one slot.
  solve_both(5, 3);
  // Horizon shrink (end of trace) and grow again.
  solve_both(4, 2);
  solve_both(1, 4);
  // Same-window replan (the same-tau resync).
  solve_both(1, 4);
}

// ---- count-guarded reader ------------------------------------------------

TEST(CompactMu, CountGuardedReaderRejectsAbsurdVectorCounts) {
  // A corrupted count field must throw before any allocation is attempted:
  // the count() guard caps element counts by the bytes actually remaining.
  util::BinaryWriter writer;
  writer.u64(std::uint64_t{1} << 50);  // claims ~10^15 elements
  const std::vector<std::uint8_t> blob = writer.bytes();
  util::BinaryReader reader(blob);
  EXPECT_THROW(reader.f64_vec(), InvalidArgument);

  util::BinaryReader reader_as(blob);
  EXPECT_THROW(reader_as.f64_vec_as<linalg::Vec>(), InvalidArgument);

  // A plain scalar (a dimension such as num_contents = 10^4) is NOT bounded
  // by the payload length: only element counts are.
  util::BinaryReader scalar(blob);
  EXPECT_EQ(scalar.size(), std::size_t{1} << 50);
}

}  // namespace
}  // namespace mdo
