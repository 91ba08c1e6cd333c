#include "core/primal_dual.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "solver/subgradient.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mdo::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool demand_finite_nonnegative(const model::DemandTrace& demand) {
  for (std::size_t t = 0; t < demand.horizon(); ++t) {
    for (const auto& sbs_demand : demand.slot(t)) {
      for (const double rate : sbs_demand.data()) {
        if (!std::isfinite(rate) || rate < 0.0) return false;
      }
    }
  }
  return true;
}

bool demand_finite_nonnegative(const model::SparseDemandTrace& demand) {
  for (std::size_t t = 0; t < demand.horizon(); ++t) {
    for (const auto& sbs_demand : demand.slot(t)) {
      if (!sbs_demand.finalized()) return false;
      for (std::size_t m = 0; m < sbs_demand.num_classes(); ++m) {
        for (const model::DemandEntry* it = sbs_demand.row_begin(m);
             it != sbs_demand.row_end(m); ++it) {
          if (!std::isfinite(it->rate) || it->rate < 0.0) return false;
        }
      }
    }
  }
  return true;
}

/// Safe fallback for solves that cannot run (kNonFiniteInput): keep the
/// current cache, serve everything from the BS, report vacuous bounds.
/// The fallback carries no dual information, so its mu is empty.
HorizonSolution fallback_solution(const HorizonProblem& problem,
                                  solver::SolveStatus status) {
  HorizonSolution degraded;
  degraded.status = status;
  degraded.upper_bound = kInf;
  degraded.lower_bound = -kInf;
  degraded.schedule.resize(problem.horizon());
  for (auto& slot : degraded.schedule) {
    slot.cache = problem.initial_cache;
    slot.load = model::LoadAllocation(*problem.config);
  }
  return degraded;
}

}  // namespace

void HorizonProblem::validate() const {
  MDO_REQUIRE(config != nullptr, "horizon problem: config must be set");
  MDO_REQUIRE((demand != nullptr) != (sparse_demand != nullptr),
              "horizon problem: exactly one demand representation");
  config->validate();
  MDO_REQUIRE(horizon() >= 1, "horizon problem: empty window");
  if (use_sparse()) {
    sparse_demand->validate(*config);
  } else {
    demand->validate(*config);
  }
  MDO_REQUIRE(initial_cache.num_sbs() == config->num_sbs() &&
                  initial_cache.num_contents() == config->num_contents,
              "horizon problem: initial cache shape mismatch");
  for (std::size_t n = 0; n < config->num_sbs(); ++n) {
    MDO_REQUIRE(initial_cache.count(n) <= config->sbs[n].cache_capacity,
                "horizon problem: initial cache over capacity");
  }
}

double HorizonSolution::gap() const {
  return (upper_bound - lower_bound) / std::max(std::abs(upper_bound), 1e-12);
}

std::size_t mu_size(const model::NetworkConfig& config, std::size_t horizon) {
  return config.total_classes() * config.num_contents * horizon;
}

PrimalDualSolver::PrimalDualSolver(PrimalDualOptions options)
    : options_(options) {
  MDO_REQUIRE(options_.max_iterations >= 1, "need at least one iteration");
  MDO_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
  MDO_REQUIRE(options_.step_alpha > 0.0, "step_alpha must be positive");
  MDO_REQUIRE(options_.step_scale >= 0.0, "step_scale must be >= 0");
}

HorizonSolution PrimalDualSolver::solve(const HorizonProblem& problem,
                                        runtime::DeadlineToken* deadline) {
  MDO_REQUIRE(problem.config != nullptr, "horizon problem: config must be set");
  MDO_REQUIRE((problem.demand != nullptr) != (problem.sparse_demand != nullptr),
              "horizon problem: exactly one demand representation");
  MDO_REQUIRE(problem.horizon() >= 1, "horizon problem: empty window");
  if (problem.use_sparse() ? !demand_finite_nonnegative(*problem.sparse_demand)
                           : !demand_finite_nonnegative(*problem.demand)) {
    // Corrupted window (NaN/Inf/negative rates): iterating would only smear
    // the poison through mu and the schedules, so return the safe fallback —
    // keep the current cache (no replacement churn) and serve everything
    // from the BS — and let the caller degrade.
    return fallback_solution(problem, solver::SolveStatus::kNonFiniteInput);
  }
  problem.validate();
  // ---- The one conversion point. A dense window is copied losslessly
  // (min_rate 0 keeps every nonzero) into the retained sparse buffer; from
  // here on the solve runs only the active-set code. This must stay AFTER
  // the checks above: the conversion drops negative rates silently.
  if (!problem.use_sparse()) window_.assign_dense(*problem.demand);
  const model::SparseDemandTrace& demand =
      problem.use_sparse() ? *problem.sparse_demand : window_;
  const auto& config = *problem.config;
  const std::size_t w = problem.horizon();
  const std::size_t num_sbs = config.num_sbs();
  const std::size_t k_count = config.num_contents;

  // ---- The active-set index structures (shard_core.hpp), built FIRST
  // because the compact mu vector is sized by them. Off the active set mu
  // is provably zero throughout the ascent (marginal init is supported on
  // lambda; off-support the subgradient is -x <= 0 and the projection pins
  // mu at 0), so the compact vector stores exactly the active coordinates
  // and nothing else (DESIGN.md §12).
  build_active_sets(config, demand, problem.initial_cache, sets_);
  mu_block_offsets(config, w, sets_, mu_off_);

  // ---- Initialize multipliers at the marginal BS cost: for SBS n at slot
  // t the gradient of f at y = 0 is 2 * a * u_j, with a the omega-weighted
  // total demand. Its mean over all w * sum_n M_n * K coordinates (the
  // off-support ones are exact zeros) also sets the automatic step size.
  linalg::Vec mu(mu_off_.back(), 0.0);
  double mean_marginal = 0.0;
  {
    // Rows and active lists are both content-sorted, so one forward
    // pointer finds each entry's compact active-set position.
    std::size_t entries = 0;
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t n = 0; n < num_sbs; ++n) {
        const auto& sbs = config.sbs[n];
        const auto& cell = demand.slot(t)[n];
        double a = 0.0;
        for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
          double row = 0.0;
          for (const model::DemandEntry* it = cell.row_begin(m);
               it != cell.row_end(m); ++it) {
            row += it->rate;
          }
          a += sbs.classes[m].omega_bs * row;
        }
        const std::vector<std::size_t>& al = sets_.active[t * num_sbs + n];
        double* block = mu.data() + mu_off_[t * num_sbs + n];
        const std::size_t a_count = al.size();
        for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
          std::size_t pos = 0;
          for (const model::DemandEntry* it = cell.row_begin(m);
               it != cell.row_end(m); ++it) {
            const double value = 2.0 * a * sbs.classes[m].omega_bs * it->rate;
            mean_marginal += value;
            while (pos < a_count && al[pos] < it->content) ++pos;
            MDO_CHECK(pos < a_count && al[pos] == it->content,
                      "compact mu: support content missing from active set");
            block[m * a_count + pos] = value;
          }
        }
        entries += sbs.num_classes() * k_count;
      }
    }
    mean_marginal /= std::max<std::size_t>(entries, 1);
  }
  if (!std::isfinite(mean_marginal)) {
    // Finite rates so large that the quadratic cost overflows: as unusable
    // as a NaN window, so take the same fallback.
    return fallback_solution(problem, solver::SolveStatus::kNonFiniteInput);
  }
  const double step_scale = options_.step_scale > 0.0
                                ? options_.step_scale
                                : std::max(1e-9, 0.5 * mean_marginal);

  ShardInputs inputs;
  inputs.config = problem.config;
  inputs.demand = &demand;
  inputs.initial_cache = &problem.initial_cache;

  // One full-range ShardCore runs the per-SBS passes (see shard_core.cpp);
  // every reduction stays below in serial index order.
  ShardCore& core = core_;
  core.begin(inputs, options_.load_balancing, bank_, p1_bank_, sets_,
             mu_off_);

  HorizonSolution best;
  best.upper_bound = kInf;
  best.lower_bound = -kInf;

  // ---- Repair schedule buffer, reused across dual iterations. Every cell
  // rewrites exactly its active coordinates (the off-active entries are
  // structurally zero and never touched), so the buffer needs no
  // re-zeroing between iterations. An improved upper bound swaps the buffer
  // into `best`; the next iteration builds a replacement only if it runs,
  // so a solve that stops after one iteration allocates one w * N * M * K
  // schedule, and any solve at most two.
  auto make_schedule = [&]() {
    model::Schedule schedule(w);
    for (std::size_t t = 0; t < w; ++t) {
      schedule[t].cache = model::CacheState(config);
      schedule[t].load = model::LoadAllocation(config);
    }
    return schedule;
  };
  model::Schedule schedule;

  const solver::DiminishingStep step(options_.step_alpha);
  bool deadline_expired = false;
  for (std::size_t iteration = 0; iteration < options_.max_iterations;
       ++iteration) {
    // ---- Deadline poll: once per dual iteration, only after the first
    // iteration completed — the repair pass below guarantees a feasible
    // incumbent exists before the budget can cut the loop short. The poll
    // sits at this serial point (not inside the parallel sections) so the
    // number of polls, and hence a logical after_checks() expiry, is
    // identical at every thread count.
    if (iteration > 0 && deadline != nullptr && deadline->poll()) {
      deadline_expired = true;
      break;
    }
    core.iterate(mu);
    double p1_value = 0.0;
    for (const double value : core.p1_objectives()) p1_value += value;
    double p2_value = 0.0;
    for (const double value : core.p2_objectives()) p2_value += value;

    // ---- Dual value = lower bound (weak duality).
    const double dual_value = p1_value + p2_value;
    best.lower_bound = std::max(best.lower_bound, dual_value);

    // ---- Feasibility repair -> upper bound. P2 with c = 0 and ub = x.
    // The cost is taken on the caller's own view: for a dense window the
    // dense evaluation is cheaper than the full-support sparse copy's and
    // gives the same bits.
    if (schedule.size() != w) schedule = make_schedule();
    core.repair(schedule);
    const model::CostBreakdown cost = model::schedule_cost(
        config, problem.demand_view(), schedule, problem.initial_cache);
    if (cost.total() < best.upper_bound) {
      best.upper_bound = cost.total();
      std::swap(best.schedule, schedule);
    }

    best.iterations = iteration + 1;
    if (best.gap() <= options_.epsilon) break;

    const double delta = step_scale * step(iteration);
    core.dual_update(delta, mu);
  }

  best.mu = std::move(mu);
  best.status = best.gap() <= options_.epsilon
                    ? solver::SolveStatus::kConverged
                : deadline_expired ? solver::SolveStatus::kDeadlineExpired
                                   : solver::SolveStatus::kIterationLimit;
  MDO_CHECK(!best.schedule.empty(), "primal-dual produced no schedule");
  MDO_TRACE("primal-dual: UB=" << best.upper_bound
                               << " LB=" << best.lower_bound
                               << " gap=" << best.gap()
                               << " iters=" << best.iterations);
  return best;
}

}  // namespace mdo::core
