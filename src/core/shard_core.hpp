// Per-SBS core of the primal-dual decomposition (Algorithm 1).
//
// The Lagrangian separates per SBS — P1 per SBS over the window, P2/repair
// per (slot, SBS), each restricted to its active set (ActiveSets below) and
// indexed through the compact mu layout (mu_block_offsets). Dense windows
// reach this code only as a lossless sparse copy made by the solver, so
// there is exactly one implementation of every pass. ShardCore binds the per-SBS P1 bank (flow networks) and
// the per-(slot, SBS) P2 workspace bank, both owned by the solver, and runs
// those independent pieces on the thread pool:
//
//   begin()        binds the core to a window problem (config, demand
//                  window, initial cache and both workspace banks),
//   iterate(mu)    runs one dual iteration's P1 + P2 passes,
//   repair()       re-solves P2 with ub = x for the feasible incumbent,
//   dual_update()  applies the projected subgradient step to mu.
//
// core::PrimalDualSolver drives one full-range ShardCore. Every floating-
// point accumulation that determines the result (P1/P2 sums, costs, bounds)
// stays OUTSIDE this class, in the solver, in canonical serial index order —
// that is the determinism argument for thread-count invariance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/caching.hpp"
#include "core/load_balancing.hpp"
#include "linalg/vec.hpp"
#include "model/decision.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"

namespace mdo::core {

/// Per-(slot, SBS) solver state (cell = t * num_sbs + n). The solver keeps
/// the bank across solves only as reusable buffers; begin() re-binds every
/// cell cold.
struct CellState {
  P2Workspace p2;      // dual-iteration P2 (linear term = mu)
  P2Workspace repair;  // feasibility repair (c = 0, ub = x)
  linalg::Vec ub;      // repair upper-bound scratch
  linalg::Vec xd;      // compact dual-ascent x-expansion scratch
};

/// Per-SBS P1 state. Like CellState, the solver keeps the bank across solves
/// only as reusable buffers (the flow network's arcs and CSR index, the
/// rewards and the schedule rows); begin() rewrites every field.
struct P1State {
  CachingSubproblem sub;
  CachingFlowWorkspace flow;    // unbound when the content union is empty
  std::vector<std::uint8_t> x;  // last iterate()'s schedule, [t * kp + i]
};

/// Active-set index structures, deterministic functions of (demand window,
/// initial cache): per-cell active sets (support union cached), the per-SBS
/// sorted union over the window (P1's restricted content list), and the
/// per-cell map from active position to P1 position. The solver rebuilds
/// them once per solve into a copy it keeps across solves (so the vectors
/// keep their capacity), sizes the compact mu from them and hands both to
/// ShardCore::begin.
struct ActiveSets {
  std::vector<std::vector<std::size_t>> active;   // per cell
  std::vector<std::vector<std::size_t>> p1_list;  // per SBS, sorted union
  std::vector<std::vector<std::size_t>> cell_p1;  // per cell, into p1_list[n]
};

ActiveSets build_active_sets(const model::NetworkConfig& config,
                             const model::SparseDemandTrace& demand,
                             const model::CacheState& initial_cache);
/// Same, rebuilt in place: `sets` keeps the capacity of its vectors.
void build_active_sets(const model::NetworkConfig& config,
                       const model::SparseDemandTrace& demand,
                       const model::CacheState& initial_cache,
                       ActiveSets& sets);

/// Block offsets of the COMPACT mu vector: cell = t * num_sbs + n owns the
/// half-open range [offsets[cell], offsets[cell + 1]), which holds its
/// M_n x |active[cell]| multipliers in (class-major, active-position) order.
/// offsets.back() is the compact vector's total size. A deterministic
/// function of (config, horizon, sets).
std::vector<std::size_t> mu_block_offsets(const model::NetworkConfig& config,
                                          std::size_t horizon,
                                          const ActiveSets& sets);
/// Same, written into `offsets` (its capacity is reused).
void mu_block_offsets(const model::NetworkConfig& config, std::size_t horizon,
                      const ActiveSets& sets,
                      std::vector<std::size_t>& offsets);

/// Non-owning window problem handed to ShardCore.
struct ShardInputs {
  const model::NetworkConfig* config = nullptr;
  const model::SparseDemandTrace* demand = nullptr;
  const model::CacheState* initial_cache = nullptr;
};

class ShardCore {
 public:
  /// Binds the core to a window problem. `bank` (cell = t * num_sbs + n)
  /// and `p1_bank` (per SBS), both resized here, must outlive the core's
  /// use; begin() re-binds their workspaces to the new window, each P2
  /// starting cold and each P1 network rebuilt in place. `sets` and
  /// `mu_off` must be what build_active_sets and mu_block_offsets give for
  /// these inputs; the core reads them in place (the solver, which also
  /// needs them, builds them once), so they too must outlive its use.
  void begin(const ShardInputs& in, const LoadBalancingOptions& load_balancing,
             std::vector<CellState>& bank, std::vector<P1State>& p1_bank,
             const ActiveSets& sets, const std::vector<std::size_t>& mu_off);

  /// One dual iteration's P1 (caching per SBS under rewards nu = sum_m mu)
  /// and P2 (load balancing per cell with linear term mu) passes, batched
  /// into a SINGLE task-pool submission (P1 and P2 are independent within
  /// an iteration — repair is a separate call — so one fused parallel_for
  /// amortizes dispatch at large N). Each task writes only its own slot;
  /// no reductions happen here. `mu` is compact (mu_block_offsets
  /// geometry).
  void iterate(const linalg::Vec& mu);

  /// Feasibility repair for the current x: P2 with c = 0 and ub = x per
  /// cell. Cache bits and load rows are written into `schedule` (one slot
  /// per window slot, sized for the config); the repaired y also stays in
  /// bank[cell].repair.
  void repair(model::Schedule& schedule);

  /// Projected subgradient ascent on mu: g = y - x (17), coordinatewise
  /// max(0, mu + delta * g). Each coordinate's update is independent, so
  /// cells update in parallel (disjoint mu ranges).
  void dual_update(double delta, linalg::Vec& mu);

  // Per-index outputs of the last iterate(); the driver reduces them
  // serially in global index order.
  const std::vector<double>& p1_objectives() const { return p1_objectives_; }
  const std::vector<double>& p2_objectives() const { return p2_objectives_; }

 private:
  const model::NetworkConfig* config_ = nullptr;
  ShardInputs inputs_;
  LoadBalancingOptions load_balancing_;
  std::size_t horizon_ = 0;
  const std::vector<std::size_t>* mu_off_ = nullptr;
  const ActiveSets* sets_ = nullptr;
  std::vector<CellState>* bank_ = nullptr;
  std::vector<P1State>* p1_ = nullptr;
  std::vector<double> p1_objectives_;
  std::vector<double> p2_objectives_;
};

}  // namespace mdo::core
