#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>

#include "alloc_hook.hpp"
#include "core/caching.hpp"
#include "core/load_balancing.hpp"
#include "core/shard_core.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A captured window's problem with the demand buffers it references.
struct Window {
  Window(const Setup& setup, const CapturedWindow& captured) {
    problem.config = &setup.instance.config;
    if (setup.instance.use_sparse_demand) {
      setup.predictor->predict_window_sparse_into(captured.slot, setup.window,
                                                  sparse);
      problem.sparse_demand = &sparse;
    } else {
      setup.predictor->predict_window_into(captured.slot, setup.window, dense);
      problem.demand = &dense;
    }
    problem.initial_cache = captured.start_cache;
  }
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  model::DemandTrace dense;
  model::SparseDemandTrace sparse;
  core::HorizonProblem problem;
};

bool same_load(const model::LoadAllocation& a, const model::LoadAllocation& b) {
  if (a.num_sbs() != b.num_sbs() || a.has_neighbor() != b.has_neighbor()) {
    return false;
  }
  for (std::size_t n = 0; n < a.num_sbs(); ++n) {
    if (a.sbs_data(n) != b.sbs_data(n)) return false;
    if (a.has_neighbor() && a.neighbor_data(n) != b.neighbor_data(n)) {
      return false;
    }
  }
  return true;
}

bool same_schedule(const model::Schedule& a, const model::Schedule& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!(a[t].cache == b[t].cache) || !same_load(a[t].load, b[t].load)) {
      return false;
    }
  }
  return true;
}

/// Iterations after which the best schedule returned so far changed, for
/// budgets 1..full_iterations (the first iteration always counts).
std::size_t useful_iterations(const Setup& setup, const Window& window,
                              std::size_t full_iterations) {
  std::size_t useful = 0;
  model::Schedule previous;
  for (std::size_t budget = 1; budget <= full_iterations; ++budget) {
    core::PrimalDualOptions options = setup.solver_options;
    options.max_iterations = budget;
    core::PrimalDualSolver solver(options);
    model::Schedule schedule = solver.solve(window.problem).schedule;
    if (budget == 1 || !same_schedule(schedule, previous)) ++useful;
    previous = std::move(schedule);
  }
  return useful;
}

}  // namespace

CoreProbe probe_core(const Setup& setup,
                     const std::vector<CapturedWindow>& windows,
                     std::size_t useful_windows) {
  CoreProbe out;
  std::size_t useful = 0;
  std::size_t iterations_run = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Window window(setup, windows[i]);
    core::PrimalDualSolver solver(setup.solver_options);
    const auto start = Clock::now();
    const core::HorizonSolution solution = solver.solve(window.problem);
    out.solve_s += since(start);
    out.dual_iterations += static_cast<double>(solution.iterations);
    out.gap_mean += solution.gap();
    if (window.problem.use_sparse()) {
      const core::ActiveSets sets = core::build_active_sets(
          *window.problem.config, window.sparse, window.problem.initial_cache);
      out.active_coords += static_cast<double>(
          core::mu_block_offsets(*window.problem.config,
                                 window.problem.horizon(), sets)
              .back());
    }
    if (i < useful_windows) {
      useful += useful_iterations(setup, window, solution.iterations);
      iterations_run += solution.iterations;
    }
  }
  out.windows = windows.size();
  if (out.windows > 0) {
    const auto count = static_cast<double>(out.windows);
    out.solve_s /= count;
    out.dual_iterations /= count;
    out.gap_mean /= count;
    out.active_coords /= count;
  }
  if (iterations_run > 0) {
    out.useful_iteration_ratio =
        static_cast<double>(useful) / static_cast<double>(iterations_run);
  }
  return out;
}

KernelProbe probe_kernels(const Setup& setup, const CapturedWindow& captured) {
  constexpr std::size_t kP2Repeats = 512;
  constexpr std::size_t kP1Repeats = 200;
  const Window window(setup, captured);
  const model::NetworkConfig& config = setup.instance.config;
  const model::SbsConfig& sbs = config.sbs[0];
  const model::DemandTraceView demand = window.problem.demand_view();
  KernelProbe out;

  // ---- P2: one (slot 0, SBS 0) cell, linear term refreshed per solve. ----
  core::P2Workspace ws;
  std::vector<std::size_t> contents(config.num_contents);
  std::iota(contents.begin(), contents.end(), std::size_t{0});
  if (window.problem.use_sparse()) {
    const model::SparseSbsDemand& cell = window.sparse.slot(0)[0];
    ws.bind_active(sbs, cell,
                   model::active_contents(cell, captured.start_cache, 0));
  } else {
    ws.bind(sbs, window.dense.slot(0)[0]);
  }
  const core::Coefficients& coeff = ws.coefficients();
  // Half the marginal BS-cost gradient 2 a u: an interior dual point.
  linalg::Vec base(coeff.u.size());
  for (std::size_t j = 0; j < base.size(); ++j) base[j] = coeff.a * coeff.u[j];
  linalg::Vec c = base;
  const auto refresh = [&](std::size_t round) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = base[j] * (1.0 + 0.01 * static_cast<double>((round + j) % 7));
    }
    ws.set_linear(c.data(), c.data() + c.size());
  };
  const core::LoadBalancingOptions p2_options =
      setup.solver_options.load_balancing;
  if (!base.empty()) {
    for (std::size_t round = 0; round < 2; ++round) {  // warm-up
      refresh(round);
      core::solve_load_balancing(ws, p2_options);
    }
    const std::uint64_t allocs_before = allocation_count();
    const auto start = Clock::now();
    for (std::size_t round = 0; round < kP2Repeats; ++round) {
      refresh(round);
      core::solve_load_balancing(ws, p2_options);
    }
    out.p2_solve_us = since(start) / kP2Repeats * 1e6;
    out.p2_steady_allocs =
        static_cast<double>(allocation_count() - allocs_before);
  }

  // ---- P1: SBS 0 over the window, rewards refreshed per solve. ----------
  if (window.problem.use_sparse()) {
    contents = core::build_active_sets(config, window.sparse,
                                       captured.start_cache)
                   .p1_list[0];
  }
  core::CachingSubproblem p1;
  p1.num_contents = contents.size();
  p1.horizon = window.problem.horizon();
  p1.capacity = std::min(sbs.cache_capacity, contents.size());
  p1.beta = sbs.replacement_beta;
  p1.initial.resize(contents.size());
  for (std::size_t i = 0; i < contents.size(); ++i) {
    p1.initial[i] = captured.start_cache.cached(0, contents[i]) ? 1 : 0;
  }
  // Rewards at the marginal BS-cost gradient nu[k, t] = 2 a_t sum_m u.
  linalg::Vec rewards(p1.horizon * contents.size(), 0.0);
  for (std::size_t t = 0; t < p1.horizon; ++t) {
    const model::SbsDemandView cell = demand.slot(t).sbs(0);
    double a = 0.0;
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      for (std::size_t i = 0; i < contents.size(); ++i) {
        const double u = sbs.classes[m].omega_bs * cell.at(m, contents[i]);
        rewards[t * contents.size() + i] += u;
        a += u;
      }
    }
    for (std::size_t i = 0; i < contents.size(); ++i) {
      rewards[t * contents.size() + i] *= 2.0 * a;
    }
  }
  if (!contents.empty()) {
    p1.rewards = rewards;
    core::CachingFlowWorkspace flow;
    flow.bind(p1);
    std::vector<std::uint8_t> x;
    flow.solve_into(p1, x);  // warm-up
    const auto start = Clock::now();
    for (std::size_t round = 0; round < kP1Repeats; ++round) {
      for (std::size_t j = 0; j < rewards.size(); ++j) {
        p1.rewards[j] =
            rewards[j] * (1.0 + 0.01 * static_cast<double>((round + j) % 7));
      }
      flow.solve_into(p1, x);
    }
    out.p1_flow_us = since(start) / kP1Repeats * 1e6;
  }
  return out;
}

double probe_parallel_for_us(std::size_t n) {
  constexpr std::size_t kRepeats = 2000;
  const std::function<void(std::size_t)> body = [](std::size_t) {};
  util::parallel_for(0, n, body);  // warm-up: wakes the pool
  const auto start = Clock::now();
  for (std::size_t round = 0; round < kRepeats; ++round) {
    util::parallel_for(0, n, body);
  }
  return since(start) / kRepeats * 1e6;
}

}  // namespace perfbench
