#include "core/load_balancing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.hpp"

namespace mdo::core {

namespace {

// key_ entry of a coordinate the exact solver's sorted order does not list.
constexpr double kUnlisted = std::numeric_limits<double>::quiet_NaN();

bool all_finite(const linalg::Vec& v) {
  for (const double value : v) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

bool load_balancing_inputs_finite(const LoadBalancingSubproblem& problem) {
  MDO_REQUIRE(problem.sbs != nullptr && problem.demand != nullptr,
              "P2: sbs and demand must be set");
  return std::isfinite(problem.sbs->bandwidth) &&
         all_finite(problem.demand->data()) && all_finite(problem.linear) &&
         all_finite(problem.upper);
}

/// Seeds a throwaway workspace from a one-shot subproblem description.
void bind_workspace(P2Workspace& ws, const LoadBalancingSubproblem& problem) {
  ws.bind(*problem.sbs, *problem.demand);
  if (!problem.linear.empty()) {
    ws.set_linear(problem.linear.data(),
                  problem.linear.data() + problem.linear.size());
  }
  if (!problem.upper.empty()) ws.set_upper(problem.upper);
}

}  // namespace

void LoadBalancingSubproblem::validate() const {
  MDO_REQUIRE(sbs != nullptr && demand != nullptr,
              "P2: sbs and demand must be set");
  MDO_REQUIRE(demand->num_classes() == sbs->num_classes(),
              "P2: class count mismatch");
  const std::size_t size = demand->num_classes() * demand->num_contents();
  MDO_REQUIRE(linear.empty() || linear.size() == size, "P2: linear size");
  MDO_REQUIRE(upper.empty() || upper.size() == size, "P2: upper size");
  for (const double b : upper) {
    MDO_REQUIRE(b >= 0.0 && b <= 1.0, "P2: upper bounds must be in [0, 1]");
  }
}

void P2Workspace::bind(const model::SbsConfig& sbs,
                       const model::SbsDemand& demand) {
  MDO_REQUIRE(demand.num_classes() == sbs.num_classes(),
              "P2 workspace: class count mismatch");
  sbs_ = &sbs;
  demand_ = &demand;
  const std::size_t classes = sbs.num_classes();
  const std::size_t contents = demand.num_contents();
  const std::size_t size = classes * contents;
  compact_ = false;
  classes_ = classes;
  contents_ = contents;
  active_.clear();

  coeff_.lambda = demand.data();
  coeff_.u.resize(size);
  coeff_.v.resize(size);
  coeff_.a = 0.0;
  exact_applicable_ = true;
  for (std::size_t m = 0; m < classes; ++m) {
    const double omega = sbs.classes[m].omega_bs;
    const double omega_sbs = sbs.classes[m].omega_sbs;
    if (omega_sbs != 0.0) exact_applicable_ = false;
    for (std::size_t k = 0; k < contents; ++k) {
      const std::size_t j = m * contents + k;
      coeff_.u[j] = omega * coeff_.lambda[j];
      coeff_.v[j] = omega_sbs * coeff_.lambda[j];
      coeff_.a += coeff_.u[j];
    }
  }
  quad_norm_ =
      linalg::dot(coeff_.u, coeff_.u) + linalg::dot(coeff_.v, coeff_.v);
  bind_finite_ = std::isfinite(sbs.bandwidth) && all_finite(coeff_.lambda);
  coeff_.c.assign(size, 0.0);
  linear_finite_ = true;
  coeff_.ub.assign(size, 1.0);
  upper_finite_ = true;
  reset_solve_state();
}

void P2Workspace::bind_active(const model::SbsConfig& sbs,
                              const model::SparseSbsDemand& demand,
                              const std::vector<std::size_t>& active) {
  MDO_REQUIRE(demand.num_classes() == sbs.num_classes(),
              "P2 workspace: class count mismatch");
  sbs_ = &sbs;
  demand_ = nullptr;
  const std::size_t classes = sbs.num_classes();
  const std::size_t a_count = active.size();
  const std::size_t size = classes * a_count;

  compact_ = true;
  classes_ = classes;
  contents_ = demand.num_contents();
  active_.assign(active.begin(), active.end());

  coeff_.lambda.assign(size, 0.0);
  for (std::size_t m = 0; m < classes; ++m) {
    std::size_t pos = 0;
    for (const model::DemandEntry* it = demand.row_begin(m);
         it != demand.row_end(m); ++it) {
      while (pos < a_count && active_[pos] < it->content) ++pos;
      MDO_REQUIRE(pos < a_count && active_[pos] == it->content,
                  "P2 workspace: active set must cover the demand support");
      coeff_.lambda[m * a_count + pos] = it->rate;
    }
  }

  coeff_.u.resize(size);
  coeff_.v.resize(size);
  coeff_.a = 0.0;
  exact_applicable_ = true;
  for (std::size_t m = 0; m < classes; ++m) {
    const double omega = sbs.classes[m].omega_bs;
    const double omega_sbs = sbs.classes[m].omega_sbs;
    if (omega_sbs != 0.0) exact_applicable_ = false;
    for (std::size_t i = 0; i < a_count; ++i) {
      const std::size_t j = m * a_count + i;
      coeff_.u[j] = omega * coeff_.lambda[j];
      coeff_.v[j] = omega_sbs * coeff_.lambda[j];
      coeff_.a += coeff_.u[j];
    }
  }
  quad_norm_ =
      linalg::dot(coeff_.u, coeff_.u) + linalg::dot(coeff_.v, coeff_.v);
  bind_finite_ = std::isfinite(sbs.bandwidth) && all_finite(coeff_.lambda);
  coeff_.c.assign(size, 0.0);
  linear_finite_ = true;
  coeff_.ub.assign(size, 1.0);
  upper_finite_ = true;
  reset_solve_state();
}

void P2Workspace::reset_solve_state() {
  has_solution_ = false;
  exact_solution_ = false;
  y_.clear();  // cold start: the first solve begins at y = 0
  // The exact solver's first call re-sorts every coordinate. Sizing its
  // buffers here keeps the solves themselves allocation-free; FISTA-only
  // instances never use them.
  const std::size_t size = exact_applicable_ ? coeff_.lambda.size() : 0;
  MDO_REQUIRE(size <= std::numeric_limits<std::uint32_t>::max(),
              "P2 workspace: too many coordinates for the exact solver");
  order_.clear();
  order_.reserve(size);
  changed_.clear();
  changed_.reserve(size);
  key_.assign(size, kUnlisted);
}

void P2Workspace::set_linear(const double* begin, const double* end) {
  MDO_REQUIRE(bound(), "P2 workspace: bind() before set_linear()");
  const std::size_t size = static_cast<std::size_t>(end - begin);
  MDO_REQUIRE(size == coeff_.lambda.size(), "P2 workspace: linear size");
  // memcmp, not ==: -0.0 and 0.0 are different inputs to the exact solver.
  if (exact_solution_ &&
      (size == 0 ||
       std::memcmp(coeff_.c.data(), begin, size * sizeof(double)) == 0)) {
    return;
  }
  coeff_.c.assign(begin, end);
  linear_finite_ = all_finite(coeff_.c);
  has_solution_ = false;
  exact_solution_ = false;
}

void P2Workspace::scatter_solution(linalg::Vec& dense) const {
  MDO_REQUIRE(bound(), "P2 workspace: bind() before scatter_solution()");
  MDO_REQUIRE(y_.size() == coeff_.lambda.size(),
              "P2 workspace: no solution to scatter");
  if (!compact_) {
    dense = y_;
    return;
  }
  MDO_REQUIRE(dense.size() == classes_ * contents_,
              "P2 workspace: scatter target size mismatch");
  const std::size_t a_count = active_.size();
  for (std::size_t m = 0; m < classes_; ++m) {
    for (std::size_t i = 0; i < a_count; ++i) {
      dense[m * contents_ + active_[i]] = y_[m * a_count + i];
    }
  }
}

void P2Workspace::set_upper(const linalg::Vec& upper) {
  MDO_REQUIRE(bound(), "P2 workspace: bind() before set_upper()");
  MDO_REQUIRE(upper.size() == coeff_.lambda.size(),
              "P2 workspace: upper size");
  coeff_.ub = upper;
  upper_finite_ = all_finite(coeff_.ub);
  exact_solution_ = false;
  if (upper_finite_) {
    // Non-finite bounds are reported via the solve status instead of thrown,
    // matching the legacy finite-check-before-validate order.
    for (const double b : coeff_.ub) {
      MDO_REQUIRE(b >= 0.0 && b <= 1.0, "P2: upper bounds must be in [0, 1]");
    }
  }
  has_solution_ = false;
}

void P2Workspace::refresh_feasible_set() {
  const std::size_t size = coeff_.lambda.size();
  feasible_.lo.assign(size, 0.0);
  feasible_.hi = coeff_.ub;
  feasible_.weights = coeff_.lambda;
  feasible_.budget = sbs_->bandwidth;
  // Validated once per solve here; the per-iteration projections then use
  // the unchecked project_box_knapsack_into.
  feasible_.validate();
}

void P2Workspace::solve_fista(const LoadBalancingOptions& options,
                              LoadBalancingOutcome& out) {
  const std::size_t size = coeff_.lambda.size();
  exact_solution_ = false;

  double lipschitz = 2.0 * quad_norm_;
  if (lipschitz <= 1e-14) {
    bool c_nonneg = true;
    for (const double cj : coeff_.c) c_nonneg = c_nonneg && cj >= 0.0;
    if (c_nonneg) {
      // Degenerate instance: no weighted demand and c >= 0, so the
      // objective reduces to c . y and y = 0 is optimal.
      y_.assign(size, 0.0);
      out.objective = coeff_.a * coeff_.a;  // == objective at y = 0
      out.iterations = 0;
      out.converged = true;
      out.status = solver::SolveStatus::kConverged;
      has_solution_ = true;
      return;
    }
    lipschitz = 1.0;  // linear objective: any positive step works with PGD
  }

  refresh_feasible_set();

  // [this] captures fit std::function's small-buffer storage: no allocation.
  const solver::ValueGradientFn objective = [this](const linalg::Vec& y,
                                                   linalg::Vec& grad) {
    const auto [u_dot_y, v_dot_y] = linalg::dot_pair(coeff_.u, coeff_.v, y);
    const double bs_term = coeff_.a - u_dot_y;
    const double sbs_term = v_dot_y;
    for (std::size_t j = 0; j < y.size(); ++j) {
      grad[j] = -2.0 * bs_term * coeff_.u[j] + 2.0 * sbs_term * coeff_.v[j] +
                coeff_.c[j];
    }
    const double bs_sq = bs_term * bs_term;
    const double sbs_sq = sbs_term * sbs_term;
    double linear_term = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) {
      linear_term += coeff_.c[j] * y[j];
    }
    return bs_sq + sbs_sq + linear_term;
  };
  const solver::ProjectionIntoFn project = [this](const linalg::Vec& in,
                                                  linalg::Vec& out_vec) {
    solver::project_box_knapsack_into(in, feasible_, out_vec);
  };

  if (y_.size() != size) y_.assign(size, 0.0);
  first_order_.x = y_;  // warm start (copy-assign reuses capacity)

  solver::FirstOrderOptions fo = options.first_order;
  fo.lipschitz = lipschitz;
  const solver::FirstOrderSummary summary =
      solver::minimize_projected(objective, project, first_order_, fo);

  y_.swap(first_order_.x);
  out.objective = summary.objective_value;
  out.iterations = summary.iterations;
  out.converged = summary.converged;
  out.status = summary.status;
  has_solution_ = true;
}

/// Solves the fixed-theta stationarity system of the exact solver into
/// exact_y_, with the consistent scalar s = u . y. See the header for the
/// math. Allocation-free: bind() sized the buffers for the instance.
void P2Workspace::stationary_point(double theta) {
  const std::size_t size = coeff_.u.size();
  MDO_CHECK(key_.size() == size, "exact P2: sort state not sized by bind");
  exact_y_.assign(size, 0.0);

  // Coordinates with u_j = 0 do not move s: they activate exactly when
  // their linear coefficient (c_j + theta lambda_j) is negative.
  // Coordinates with u_j > 0 activate when phi = 2(a - s) exceeds their
  // threshold t_j = (c_j + theta lambda_j) / u_j; those with ub_j > 0 are
  // kept in order_, sorted by (t_j, j).
  const auto price = [&](std::size_t j) {
    return coeff_.c[j] + theta * coeff_.lambda[j];
  };
  const auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  // The order std::pair<double, j> compares (threshold, j) keys in.
  const auto before = [this](std::uint32_t x, std::uint32_t y) {
    return key_[x] < key_[y] || (!(key_[y] < key_[x]) && x < y);
  };
  // 1. Walk the last order: keep (in place, still sorted) every coordinate
  // whose threshold kept its exact bits; queue the re-keyed ones and drop
  // the ones pinned at zero since.
  changed_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::uint32_t j = order_[i];
    const double key =
        coeff_.ub[j] > 0.0 ? price(j) / coeff_.u[j] : kUnlisted;
    if (same_bits(key, key_[j])) {
      order_[kept++] = j;
      continue;
    }
    key_[j] = key;
    if (!std::isnan(key)) changed_.push_back(j);
  }
  // 2. Every coordinate not listed before: the u_j = 0 ones set y directly,
  // the newly listed ones join the queue.
  for (std::size_t j = 0; j < size; ++j) {
    if (coeff_.u[j] <= 0.0) {
      if (price(j) < 0.0) exact_y_[j] = coeff_.ub[j];
      continue;
    }
    if (!std::isnan(key_[j]) || coeff_.ub[j] <= 0.0) continue;
    key_[j] = price(j) / coeff_.u[j];
    changed_.push_back(static_cast<std::uint32_t>(j));
  }
  // 3. Sort the queue and merge it in, backwards from the end, so no second
  // list is needed (kept + queued <= size, the reserved capacity).
  std::sort(changed_.begin(), changed_.end(), before);
  std::size_t i = kept;
  std::size_t k = changed_.size();
  std::size_t out = kept + k;
  order_.resize(out);
  while (k > 0) {
    if (i > 0 && before(changed_[k - 1], order_[i - 1])) {
      order_[--out] = order_[--i];
    } else {
      order_[--out] = changed_[--k];
    }
  }

  // Group equal thresholds (within a tiny tolerance) so ties are split
  // fractionally rather than flip-flopped. Groups are (begin, end) ranges
  // into order_ — no per-group member vectors.
  groups_.clear();
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    const std::size_t j = order_[pos];
    const double threshold = key_[j];
    if (groups_.empty() ||
        threshold >
            groups_.back().threshold + 1e-12 * (1.0 + std::abs(threshold))) {
      groups_.push_back({threshold, pos, pos, 0.0});
    }
    groups_.back().end = pos + 1;
    groups_.back().mass += coeff_.u[j] * coeff_.ub[j];
  }

  // Walk the piecewise-linear fixed point G(phi) = phi + 2 s(phi) - 2a.
  const double a2 = 2.0 * coeff_.a;
  double below = 0.0;  // s contribution of groups strictly below phi
  std::size_t solved_group = groups_.size();
  double fraction = 1.0;
  std::size_t active_groups = 0;
  for (std::size_t g = 0; g <= groups_.size(); ++g) {
    const double seg_lo = g == 0 ? -std::numeric_limits<double>::infinity()
                                 : groups_[g - 1].threshold;
    const double seg_hi = g == groups_.size()
                              ? std::numeric_limits<double>::infinity()
                              : groups_[g].threshold;
    // Interior candidate for this segment: s constant = below.
    const double candidate = a2 - 2.0 * below;
    if (candidate > seg_lo && candidate <= seg_hi) {
      active_groups = g;
      solved_group = groups_.size();  // no fractional group
      break;
    }
    if (g == groups_.size()) {
      active_groups = g;  // numerical fallback: everything active
      break;
    }
    // Jump at phi = seg_hi: fractional root if G crosses zero there.
    const double g_minus = seg_hi + 2.0 * below - a2;
    const double g_plus = seg_hi + 2.0 * (below + groups_[g].mass) - a2;
    if (g_minus <= 0.0 && g_plus >= 0.0) {
      const double s_star = (a2 - seg_hi) / 2.0;
      fraction = groups_[g].mass > 0.0
                     ? std::clamp((s_star - below) / groups_[g].mass, 0.0, 1.0)
                     : 0.0;
      solved_group = g;
      active_groups = g;
      break;
    }
    below += groups_[g].mass;
  }

  for (std::size_t g = 0; g < active_groups; ++g) {
    for (std::size_t pos = groups_[g].begin; pos < groups_[g].end; ++pos) {
      const std::size_t j = order_[pos];
      exact_y_[j] = coeff_.ub[j];
    }
  }
  if (solved_group < groups_.size()) {
    for (std::size_t pos = groups_[solved_group].begin;
         pos < groups_[solved_group].end; ++pos) {
      const std::size_t j = order_[pos];
      exact_y_[j] = fraction * coeff_.ub[j];
    }
  }
}

namespace {

double load_of(const Coefficients& coeff, const linalg::Vec& y) {
  double load = 0.0;
  for (std::size_t j = 0; j < y.size(); ++j) load += coeff.lambda[j] * y[j];
  return load;
}

}  // namespace

void P2Workspace::solve_exact(LoadBalancingOutcome& out) {
  const double budget = sbs_->bandwidth;
  out.converged = true;
  out.status = solver::SolveStatus::kConverged;

  // theta = 0: bandwidth slack case.
  stationary_point(0.0);
  if (load_of(coeff_, exact_y_) <= budget + 1e-12) {
    y_.swap(exact_y_);
    out.iterations = 1;
  } else {
    // Bisect the bandwidth multiplier; the load is non-increasing in theta
    // and reaches 0 once theta outprices every coordinate, so doubling
    // brackets it for any finite demand scale.
    double lo = 0.0;
    double hi = 1.0;
    stationary_point(hi);
    while (load_of(coeff_, exact_y_) > budget) {
      hi *= 2.0;
      MDO_CHECK(std::isfinite(hi),
                "exact P2: failed to bracket the multiplier");
      stationary_point(hi);
    }
    std::size_t iterations = 1;
    while (hi - lo > 1e-13 * (1.0 + hi)) {
      const double mid = 0.5 * (lo + hi);
      stationary_point(mid);
      if (load_of(coeff_, exact_y_) > budget) lo = mid;
      else hi = mid;
      ++iterations;
    }
    stationary_point(hi);  // feasible side
    y_.swap(exact_y_);
    out.iterations = iterations;

    // At a binding bandwidth row the active set can jump discretely at
    // theta*, leaving unused budget; a short FISTA polish from this
    // (excellent) warm start recovers the fractional boundary point.
    LoadBalancingOptions polish;
    polish.prefer_exact = false;
    polish.first_order.max_iterations = 200;
    polish.first_order.gradient_tolerance = 1e-7;
    LoadBalancingOutcome refined;
    if (inputs_finite()) {
      solve_fista(polish, refined);
    } else {
      y_.assign(coeff_.lambda.size(), 0.0);
    }
    out.iterations += refined.iterations;
  }

  const double bs_term = coeff_.a - linalg::dot(coeff_.u, y_);
  out.objective = bs_term * bs_term + linalg::dot(coeff_.c, y_);
  has_solution_ = true;
  exact_solution_ = true;
}

LoadBalancingOutcome solve_load_balancing(P2Workspace& ws,
                                          const LoadBalancingOptions& options) {
  MDO_REQUIRE(ws.bound(), "P2 workspace: bind() before solve");
  LoadBalancingOutcome out;
  if (!ws.inputs_finite()) {
    // Corrupted rates/multipliers: serve everything from the BS (y = 0 is
    // feasible for every box-knapsack instance) and report via the status.
    ws.y_.assign(ws.coeff_.lambda.size(), 0.0);
    out.status = solver::SolveStatus::kNonFiniteInput;
    out.converged = false;
    ws.has_solution_ = true;
    ws.exact_solution_ = false;
    return out;
  }
  if (options.prefer_exact && ws.exact_applicable_) {
    // Unchanged (c, ub) since the last exact solve: its answer stands.
    if (!ws.exact_solution_) ws.solve_exact(ws.exact_outcome_);
    return ws.exact_outcome_;
  }
  ws.solve_fista(options, out);
  return out;
}

LoadBalancingSolution solve_load_balancing(
    const LoadBalancingSubproblem& problem,
    const LoadBalancingOptions& options, const linalg::Vec* warm_start) {
  if (!load_balancing_inputs_finite(problem)) {
    LoadBalancingSolution out;
    out.y.assign(problem.demand->num_classes() * problem.demand->num_contents(),
                 0.0);
    out.status = solver::SolveStatus::kNonFiniteInput;
    return out;
  }
  problem.validate();
  if (options.prefer_exact && load_balancing_exact_applicable(problem)) {
    return solve_load_balancing_exact(problem);
  }

  P2Workspace ws;
  bind_workspace(ws, problem);
  if (warm_start != nullptr) ws.warm_start() = *warm_start;
  const LoadBalancingOutcome outcome = solve_load_balancing(ws, options);

  LoadBalancingSolution out;
  out.y = std::move(ws.warm_start());
  out.objective = outcome.objective;
  out.iterations = outcome.iterations;
  out.converged = outcome.converged;
  out.status = outcome.status;
  return out;
}

double load_balancing_objective(const Coefficients& coeff,
                                const linalg::Vec& y) {
  MDO_REQUIRE(y.size() == coeff.lambda.size(), "P2 objective: y size");
  const auto [u_dot_y, v_dot_y] = linalg::dot_pair(coeff.u, coeff.v, y);
  const double bs_term = coeff.a - u_dot_y;
  const double sbs_term = v_dot_y;
  return bs_term * bs_term + sbs_term * sbs_term + linalg::dot(coeff.c, y);
}

double load_balancing_objective(const LoadBalancingSubproblem& problem,
                                const linalg::Vec& y) {
  problem.validate();
  P2Workspace ws;
  bind_workspace(ws, problem);
  return load_balancing_objective(ws.coefficients(), y);
}

bool load_balancing_exact_applicable(const LoadBalancingSubproblem& problem) {
  problem.validate();
  for (const auto& mu : problem.sbs->classes) {
    if (mu.omega_sbs != 0.0) return false;
  }
  return true;
}

LoadBalancingSolution solve_load_balancing_exact(
    const LoadBalancingSubproblem& problem) {
  MDO_REQUIRE(load_balancing_exact_applicable(problem),
              "exact P2 solver requires all omega_sbs = 0");
  P2Workspace ws;
  bind_workspace(ws, problem);

  LoadBalancingOutcome outcome;
  ws.solve_exact(outcome);

  LoadBalancingSolution out;
  out.y = std::move(ws.warm_start());
  out.objective = outcome.objective;
  out.iterations = outcome.iterations;
  out.converged = outcome.converged;
  out.status = outcome.status;
  return out;
}

model::LoadAllocation optimal_load_for_cache(
    const model::NetworkConfig& config, const model::SlotDemand& demand,
    const model::CacheState& cache, const LoadBalancingOptions& options) {
  model::LoadAllocation load(config);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const std::size_t classes = config.sbs[n].num_classes();
    const std::size_t k_count = config.num_contents;
    LoadBalancingSubproblem p2;
    p2.sbs = &config.sbs[n];
    p2.demand = &demand[n];
    p2.upper.assign(classes * k_count, 0.0);
    for (std::size_t k = 0; k < k_count; ++k) {
      if (!cache.cached(n, k)) continue;
      for (std::size_t m = 0; m < classes; ++m) p2.upper[m * k_count + k] = 1.0;
    }
    load.sbs_data(n) = solve_load_balancing(p2, options).y;
  }
  return load;
}

model::LoadAllocation optimal_load_for_cache(
    const model::NetworkConfig& config, model::SlotDemandView demand,
    const model::CacheState& cache, const LoadBalancingOptions& options) {
  MDO_REQUIRE(demand.valid(), "optimal_load_for_cache: empty demand view");
  if (!demand.is_sparse()) {
    return optimal_load_for_cache(config, *demand.dense(), cache, options);
  }
  const model::SparseSlotDemand& slot = *demand.sparse();
  MDO_REQUIRE(slot.size() == config.num_sbs(),
              "optimal_load_for_cache: demand shape mismatch");
  model::LoadAllocation load(config);  // zero-initialized
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const std::size_t classes = config.sbs[n].num_classes();
    const std::vector<std::size_t> active =
        model::active_contents(slot[n], cache, n);
    // A throwaway workspace per SBS mirrors the legacy cold-start path.
    P2Workspace ws;
    ws.bind_active(config.sbs[n], slot[n], active);
    linalg::Vec ub(classes * active.size(), 0.0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!cache.cached(n, active[i])) continue;
      for (std::size_t m = 0; m < classes; ++m) ub[m * active.size() + i] = 1.0;
    }
    ws.set_upper(ub);
    solve_load_balancing(ws, options);
    ws.scatter_solution(load.sbs_data(n));
  }
  return load;
}

}  // namespace mdo::core
