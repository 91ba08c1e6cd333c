// Algorithm 1: the primal-dual decomposition solver (Sec. III).
//
// The coupling constraint y <= x (3) is dualized with multipliers
// mu[n, m, k, t] >= 0 (12); the Lagrangian (13) then separates into the
// caching problem P1 (solved per SBS over the window, see caching.hpp) and
// the load-balancing problem P2 (solved per SBS per slot, see
// load_balancing.hpp). The dual is ascended with the projected subgradient
// update (15)-(17).
//
// Each iteration also performs a *feasibility repair*: with X fixed from
// P1, P2 is re-solved with the box upper bound set to x (folding (3) back
// in), giving a feasible primal schedule and hence a valid upper bound.
// The solver returns the best repaired schedule; the dual value is the
// lower bound. This realizes the UB/LB bookkeeping of Algorithm 1 while
// guaranteeing the output is always feasible.
//
// The same solver serves both the offline optimum (window = whole horizon,
// true demand) and every online controller's window subproblem (26)-(31)
// (window = prediction horizon, predicted demand).
//
// The per-SBS / per-(slot, SBS) loop bodies live in core::ShardCore
// (shard_core.hpp): the solver drives one full-range ShardCore, whose
// passes the thread pool parallelizes. There is one solve path, the
// active-set one: a dense window is checked, validated and then copied
// losslessly into a sparse buffer the solver keeps, so dense and sparse
// inputs run the same code (only the cost accounting reads the caller's
// own representation).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/load_balancing.hpp"
#include "core/shard_core.hpp"
#include "linalg/vec.hpp"
#include "runtime/deadline.hpp"
#include "solver/status.hpp"
#include "model/costs.hpp"
#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"

namespace mdo::core {

/// A finite-horizon joint problem: minimize (9) over the given demand
/// window starting from `initial_cache`. The window is referenced, not
/// owned: exactly one of `demand` (dense) and `sparse_demand` is set, and
/// the trace must outlive the solve — controllers keep per-window buffers
/// and hand out views instead of copying the window per decision. The
/// solver restricts P1/P2 to each (slot, SBS) active set (support union
/// cached); a dense window is solved through its lossless sparse copy, so a
/// dense trace and its from_dense twin give bit-identical solutions.
struct HorizonProblem {
  const model::NetworkConfig* config = nullptr;            // not owned
  const model::DemandTrace* demand = nullptr;              // window, W >= 1
  const model::SparseDemandTrace* sparse_demand = nullptr;
  model::CacheState initial_cache;                         // x^{tau-1}

  bool use_sparse() const { return sparse_demand != nullptr; }
  std::size_t horizon() const {
    return use_sparse() ? sparse_demand->horizon() : demand->horizon();
  }
  model::DemandTraceView demand_view() const {
    return use_sparse() ? model::DemandTraceView(*sparse_demand)
                        : model::DemandTraceView(*demand);
  }
  void validate() const;
};

struct PrimalDualOptions {
  std::size_t max_iterations = 16;  // L in Algorithm 1
  double epsilon = 1e-4;            // relative-gap accuracy (paper: 0.0001)
  /// alpha in delta_l = alpha / (1 + l) (16). Recalibrated from the old
  /// 0.08 (which under the former 1/(1 + alpha l) schedule never scaled the
  /// first step): 1.0 keeps delta_0 = 1 so step_scale retains its meaning.
  double step_alpha = 1.0;
  /// Multiplies the schedule (16); 0 selects an automatic scale derived
  /// from the marginal BS cost (see primal_dual.cpp).
  double step_scale = 0.0;
  LoadBalancingOptions load_balancing{};
};

struct HorizonSolution {
  model::Schedule schedule;   // length W, feasible
  double upper_bound = 0.0;   // objective (9) of `schedule`
  double lower_bound = 0.0;   // best dual value (valid lower bound)
  std::size_t iterations = 0; // dual iterations performed
  /// Final multipliers in the compact active-coordinate layout
  /// (core::mu_block_offsets geometry); at full support that is the dense
  /// slot/SBS/class/content order. Empty in a kNonFiniteInput fallback.
  linalg::Vec mu;
  /// How the solve terminated. kNonFiniteInput means the demand window held
  /// NaN/Inf/negative rates, or rates so large that the quadratic cost
  /// overflows: the schedule is then the safe fallback (carry the initial
  /// cache, serve everything from the BS) and the bounds are meaningless
  /// (UB = +inf, LB = -inf). kIterationLimit still delivers the best
  /// feasible repaired schedule found within the budget.
  solver::SolveStatus status = solver::SolveStatus::kConverged;

  /// Relative optimality gap (UB - LB) / max(|UB|, 1e-12).
  double gap() const;
};

/// Size of the full w * sum_n M_n * K multiplier coordinate space (the
/// compact mu of a full-support window).
std::size_t mu_size(const model::NetworkConfig& config, std::size_t horizon);

class PrimalDualSolver {
 public:
  explicit PrimalDualSolver(PrimalDualOptions options = {});

  /// Solves the window problem. The multipliers start at the marginal
  /// BS-cost gradient and the diminishing-step schedule (16) at delta_0 on
  /// every call: the result is a pure function of `problem` (and the
  /// options). Nothing carries over between solves — measured head-to-head
  /// (EXPERIMENTS.md E17), neither multipliers shifted across slid windows
  /// nor cross-window P2 warm starts paid for their state. Non-finite or
  /// negative demand never throws: it is reported through the result
  /// status with a safe fallback schedule (see HorizonSolution::status).
  ///
  /// Non-const only because the solver keeps the per-(slot, SBS) P2
  /// workspace bank, the per-SBS P1 bank, the active-set structures, the
  /// shard core and the sparse copy of a dense window as reusable buffers
  /// (the zero-allocation hot path); every workspace is re-bound, with a
  /// cold P2 start and a P1 network rebuilt in place, at the top of each
  /// solve.
  ///
  /// `deadline` (optional) bounds the solve: the token is polled once per
  /// dual iteration — after the first iteration completes, so a feasible
  /// repaired incumbent always exists — and on expiry the best incumbent
  /// is returned with status kDeadlineExpired (anytime semantics). A null
  /// or unlimited token leaves the solve bitwise-identical to the
  /// pre-deadline behavior.
  HorizonSolution solve(const HorizonProblem& problem,
                        runtime::DeadlineToken* deadline = nullptr);

  const PrimalDualOptions& options() const { return options_; }

 private:
  PrimalDualOptions options_;
  std::vector<CellState> bank_;  // cell = t * num_sbs + n; buffers only
  std::vector<P1State> p1_bank_;  // per SBS; buffers only
  ActiveSets sets_;                // rebuilt every solve; buffers only
  std::vector<std::size_t> mu_off_;  // mu_block_offsets of sets_
  ShardCore core_;                 // re-begun every solve; buffers only
  model::SparseDemandTrace window_;  // sparse copy of a dense window
};

}  // namespace mdo::core
