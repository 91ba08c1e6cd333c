// Probes into single layers, built from a workload's own instance and the
// windows its traced run captured. Counts (iterations, allocations, active
// coordinates, useful iterations) repeat exactly for a given seed; times
// are means over fixed repetition counts.
#pragma once

#include <vector>

#include "tracing.hpp"

namespace perfbench {

struct CoreProbe {
  std::size_t windows = 0;
  double solve_s = 0.0;            // mean wall time of one window solve
  double dual_iterations = 0.0;    // mean dual iterations per window solve
  double gap_mean = 0.0;           // mean relative UB/LB gap
  double active_coords = 0.0;      // mean compact mu size (sparse only)
  double useful_iteration_ratio = 0.0;
};

/// Re-solves every captured window with a fresh core::PrimalDualSolver
/// (the workload's solver options). On the first `useful_windows` windows
/// it also re-solves with max_iterations = 1..L and counts the iterations
/// after which the returned schedule still changed, over the iterations
/// the full solve ran.
CoreProbe probe_core(const Setup& setup,
                     const std::vector<CapturedWindow>& windows,
                     std::size_t useful_windows);

struct KernelProbe {
  double p2_solve_us = 0.0;        // mean steady-state P2 re-solve
  double p2_steady_allocs = 0.0;   // heap allocations over all re-solves
  double p1_flow_us = 0.0;         // mean P1 min-cost-flow re-solve
};

/// Binds one core::P2Workspace to the first slot and SBS of `window` and
/// re-solves it with a refreshed linear term; binds one
/// core::CachingFlowWorkspace to that SBS's window P1 and re-solves it with
/// refreshed rewards.
KernelProbe probe_kernels(const Setup& setup, const CapturedWindow& window);

/// Mean wall time of an empty-body util::parallel_for over `n` indices on
/// the global pool.
double probe_parallel_for_us(std::size_t n);

}  // namespace perfbench
