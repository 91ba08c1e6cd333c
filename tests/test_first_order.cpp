// Unit tests for the projected-gradient / FISTA solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/vec.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"
#include "solver/subgradient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::solver {
namespace {

using linalg::Vec;

/// f(x) = sum (x_i - target_i)^2, gradient 2 (x - target), L = 2.
ValueGradientFn quadratic(const Vec& target) {
  return [target](const Vec& x, Vec& grad) {
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target[i];
      grad[i] = 2.0 * d;
      value += d * d;
    }
    return value;
  };
}

ProjectionIntoFn box(double lo, double hi) {
  return [lo, hi](const Vec& x, Vec& out) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      out[i] = std::clamp(x[i], lo, hi);
    }
  };
}

ProjectionIntoFn identity() {
  return [](const Vec& x, Vec& out) { out = x; };
}

FirstOrderWorkspace start_at(Vec x0) {
  FirstOrderWorkspace ws;
  ws.x = std::move(x0);
  return ws;
}

TEST(FirstOrder, UnconstrainedQuadraticConverges) {
  const Vec target{1.0, -2.0, 3.0};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 2000;
  FirstOrderWorkspace ws = start_at(Vec(3, 0.0));
  const auto result =
      minimize_projected(quadratic(target), identity(), ws, options);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ws.x[i], target[i], 1e-6);
  EXPECT_NEAR(result.objective_value, 0.0, 1e-10);
}

TEST(FirstOrder, BoxConstraintClampsOptimum) {
  const Vec target{2.0, -3.0, 0.25};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 2000;
  FirstOrderWorkspace ws = start_at(Vec(3, 0.5));
  const auto result =
      minimize_projected(quadratic(target), box(0.0, 1.0), ws, options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(ws.x[0], 1.0, 1e-7);
  EXPECT_NEAR(ws.x[1], 0.0, 1e-7);
  EXPECT_NEAR(ws.x[2], 0.25, 1e-6);
}

TEST(FirstOrder, PlainGradientAlsoConverges) {
  const Vec target{0.5, 0.5};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.accelerate = false;
  options.gradient_tolerance = 1e-10;
  options.max_iterations = 5000;
  FirstOrderWorkspace ws = start_at(Vec(2, 0.0));
  const auto result =
      minimize_projected(quadratic(target), box(0.0, 1.0), ws, options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(ws.x[0], 0.5, 1e-6);
}

TEST(FirstOrder, AccelerationIsFasterOnIllConditionedProblem) {
  // f(x) = x0^2 + 100 x1^2 shifted; FISTA should need fewer iterations.
  auto objective = [](const Vec& x, Vec& grad) {
    const double d0 = x[0] - 1.0;
    const double d1 = x[1] - 1.0;
    grad[0] = 2.0 * d0;
    grad[1] = 200.0 * d1;
    return d0 * d0 + 100.0 * d1 * d1;
  };
  FirstOrderOptions fast;
  fast.lipschitz = 200.0;
  fast.gradient_tolerance = 1e-8;
  fast.max_iterations = 20000;
  FirstOrderOptions slow = fast;
  slow.accelerate = false;
  FirstOrderWorkspace fast_ws = start_at(Vec(2, 0.0));
  FirstOrderWorkspace slow_ws = start_at(Vec(2, 0.0));
  const auto accelerated =
      minimize_projected(objective, identity(), fast_ws, fast);
  const auto plain = minimize_projected(objective, identity(), slow_ws, slow);
  EXPECT_TRUE(accelerated.converged);
  EXPECT_TRUE(plain.converged);
  EXPECT_LT(accelerated.iterations, plain.iterations);
}

TEST(FirstOrder, InfeasibleStartIsProjectedFirst) {
  const Vec target{0.5};
  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.max_iterations = 100;
  FirstOrderWorkspace ws = start_at(Vec{25.0});
  minimize_projected(quadratic(target), box(0.0, 1.0), ws, options);
  EXPECT_GE(ws.x[0], 0.0);
  EXPECT_LE(ws.x[0], 1.0);
}

TEST(FirstOrder, IterationLimitReported) {
  const Vec target{1.0};
  FirstOrderOptions options;
  options.lipschitz = 2000.0;  // absurdly small steps
  options.max_iterations = 3;
  options.gradient_tolerance = 1e-14;
  FirstOrderWorkspace ws = start_at(Vec{0.0});
  const auto result =
      minimize_projected(quadratic(target), identity(), ws, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(FirstOrder, ValidatesInputs) {
  FirstOrderOptions options;
  options.lipschitz = 0.0;
  FirstOrderWorkspace ws = start_at(Vec{0.0});
  EXPECT_THROW(minimize_projected(quadratic({1.0}), identity(), ws, options),
               InvalidArgument);
  options.lipschitz = 1.0;
  FirstOrderWorkspace empty;
  EXPECT_THROW(minimize_projected(quadratic({}), identity(), empty, options),
               InvalidArgument);
}

/// Property: FISTA over a random box-knapsack set reaches a point whose
/// objective no sampled feasible point beats by more than a tolerance.
class FirstOrderRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FirstOrderRandomTest, NearOptimalOnRandomQuadratics) {
  Rng rng(GetParam());
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 5));
  Vec target(n);
  for (auto& v : target) v = rng.uniform(-2.0, 2.0);

  BoxKnapsackSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  set.weights.resize(n);
  for (auto& w : set.weights) w = rng.uniform(0.0, 2.0);
  set.budget = rng.uniform(0.2, 2.0);

  FirstOrderOptions options;
  options.lipschitz = 2.0;
  options.gradient_tolerance = 1e-9;
  options.max_iterations = 5000;
  FirstOrderWorkspace ws = start_at(Vec(n, 0.0));
  const auto result = minimize_projected(
      quadratic(target),
      [&set](const Vec& x, Vec& out) {
        project_box_knapsack_into(x, set, out);
      },
      ws, options);
  EXPECT_TRUE(set.contains(ws.x, 1e-6));

  Rng sampler(GetParam() + 99);
  for (int trial = 0; trial < 300; ++trial) {
    Vec candidate(n);
    for (std::size_t i = 0; i < n; ++i)
      candidate[i] = sampler.uniform(set.lo[i], set.hi[i]);
    if (!set.contains(candidate, 0.0)) continue;
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = candidate[i] - target[i];
      value += d * d;
    }
    EXPECT_GE(value, result.objective_value - 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, FirstOrderRandomTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ----------------------------------------------------------- subgradient ----

TEST(Subgradient, StepScheduleMatchesEq16) {
  // delta_l = alpha / (1 + l): alpha scales the magnitude (the old
  // 1 / (1 + alpha l) form pinned delta_0 at 1.0 regardless of alpha).
  const DiminishingStep step(0.5);
  EXPECT_DOUBLE_EQ(step(0), 0.5);
  EXPECT_DOUBLE_EQ(step(1), 0.25);
  EXPECT_DOUBLE_EQ(step(4), 0.1);
}

TEST(Subgradient, AlphaScalesTheWholeSchedule) {
  const DiminishingStep unit(1.0);
  const DiminishingStep doubled(2.0);
  for (std::size_t l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(doubled(l), 2.0 * unit(l)) << l;
  }
}

TEST(Subgradient, RejectsNonPositiveAlpha) {
  EXPECT_THROW(DiminishingStep{0.0}, InvalidArgument);
}

TEST(Subgradient, AscendProjectsOntoNonNegativeOrthant) {
  // The fused step the solver runs: mu <- max(0, mu + delta * (y - x)),
  // eqs. (15) and (17).
  Vec mu{0.5, 0.1, 0.0, 0.8};
  const Vec y{1.0, 0.0, 0.0, 0.0};
  const Vec x{0.0, 1.0, 1.0, 1.0};
  linalg::dual_ascent_project(mu.data(), y.data(), x.data(), 0.5, mu.size());
  EXPECT_DOUBLE_EQ(mu[0], 1.0);
  EXPECT_DOUBLE_EQ(mu[1], 0.0);  // clipped at zero (eq. 15)
  EXPECT_DOUBLE_EQ(mu[2], 0.0);
  EXPECT_DOUBLE_EQ(mu[3], 0.3);  // a negative step that stays positive
}

}  // namespace
}  // namespace mdo::solver
