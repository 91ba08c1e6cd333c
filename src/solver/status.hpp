// Solver termination status shared across the numerical stack.
//
// Robust operation (see DESIGN.md, "Failure model and graceful degradation")
// requires that the per-slot hot loop never throws for recoverable numerical
// conditions: instead the first-order, P2, and primal-dual solvers report how
// they terminated and degraded callers (RobustController, the simulator)
// decide what to do with a partial result. Exceptions remain reserved for
// programming errors (shape mismatches, broken invariants).
#pragma once

namespace mdo::solver {

enum class SolveStatus {
  kConverged,       // reached the requested tolerance
  kIterationLimit,  // budget exhausted; result is the best feasible iterate
  kInfeasible,      // no feasible point exists for the model
  kNonFiniteInput,  // NaN/Inf detected in the inputs; result is a safe default
  kDeadlineExpired,  // decision budget ran out; result is the best feasible
                     // incumbent found so far (anytime semantics)
};

constexpr const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kIterationLimit: return "iteration_limit";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kNonFiniteInput: return "non_finite_input";
    case SolveStatus::kDeadlineExpired: return "deadline_expired";
  }
  return "?";
}

}  // namespace mdo::solver
