// The traced run: forwarding decorators around the predictor and the
// controller, and a slot loop that makes the same public calls, in the
// same order, as a clean sim::Simulator::run, with a span around each.
//
// Spans are recorded from the benchmark's side of each layer boundary:
//   workload  predict()/predict_sparse()       (inside decide)
//   online    decide() minus predict, observe()
//   model     enforce_feasibility(), slot_cost() + load accounting
//   core      apply_neighbor_overlay()
//   sim       EventSimulator::simulate_slot()
// Each span's time is self time (the spans do not nest, except predict
// inside decide, which is subtracted), so the self times plus the
// unexplained remainder add up to the traced wall time.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Forwards every call to the wrapped predictor and accumulates the time
/// spent in it, the number of slot forecasts served and their nonzeros.
class TracingPredictor final : public workload::Predictor {
 public:
  /// `inner` must outlive the decorator.
  explicit TracingPredictor(const workload::Predictor& inner);

  model::SlotDemand predict(std::size_t tau, std::size_t t) const override;
  model::SparseSlotDemand predict_sparse(std::size_t tau,
                                         std::size_t t) const override;
  std::size_t horizon() const override;
  void save_state(util::BinaryWriter& w) const override;
  void restore_state(util::BinaryReader& r) const override;

  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t nonzeros() const { return nonzeros_; }

 private:
  const workload::Predictor* inner_;
  mutable double seconds_ = 0.0;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t nonzeros_ = 0;
};

/// A decision slot whose window problem the probes can rebuild: the
/// executed cache the slot started from. The window demand is the
/// predictor's forecast at that slot.
struct CapturedWindow {
  std::size_t slot = 0;
  model::CacheState start_cache;
};

/// Forwards every call to the wrapped controller. decide() is timed, its
/// heap allocations are counted, the predictor time inside it is split
/// off, and a decision that throws or logs a solve failure is counted as
/// failed. Every `capture_stride`-th slot is captured for the probes.
class TracingController final : public online::Controller {
 public:
  /// `inner` and `predictor` must outlive the decorator.
  TracingController(online::Controller& inner,
                    const TracingPredictor& predictor,
                    std::size_t capture_stride);

  std::string name() const override;
  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const online::DecisionContext& ctx) override;
  void observe(std::size_t slot, const model::SlotDecision& executed) override;
  void resync(std::size_t slot, const model::SlotDecision& executed) override;
  bool supports_checkpoint() const override;
  void save_state(util::BinaryWriter& w) const override;
  void restore_state(util::BinaryReader& r) override;

  double decide_seconds() const { return decide_seconds_; }
  double predict_seconds() const { return predict_seconds_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t allocations() const { return allocations_; }
  const std::vector<CapturedWindow>& captured() const { return captured_; }

 private:
  online::Controller* inner_;
  const TracingPredictor* predictor_;
  std::size_t capture_stride_;
  model::CacheState last_executed_;
  double decide_seconds_ = 0.0;
  double predict_seconds_ = 0.0;
  std::uint64_t decisions_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t allocations_ = 0;
  std::vector<CapturedWindow> captured_;
};

/// Per-layer outcome of one traced run.
struct TraceResult {
  double wall_s = 0.0;  // slot loop, excluding the feasibility checks
  double predict_s = 0.0;
  double decide_self_s = 0.0;  // decide minus predict
  double observe_s = 0.0;
  double enforce_s = 0.0;
  double overlay_s = 0.0;
  double cost_s = 0.0;
  double events_s = 0.0;
  std::uint64_t predict_calls = 0;
  std::uint64_t predicted_nnz = 0;
  std::uint64_t decisions = 0;
  std::uint64_t failed = 0;
  std::uint64_t decide_allocations = 0;
  std::uint64_t infeasible_slots = 0;  // check_feasibility violations
  std::uint64_t decision_bytes = 0;    // largest executed decision
  std::uint64_t replacements = 0;
  double demand_total = 0.0;
  double sbs_served = 0.0;
  double neigh_served = 0.0;  // traffic served out of neighbor caches
  std::uint64_t requests = 0;
  std::size_t solve_failures = 0;
  std::size_t deadline_expirations = 0;
  double total_cost = 0.0;
  std::vector<CapturedWindow> captured;

  /// wall_s minus the sum of the self times.
  double unexplained_s() const;
};

/// Plays the setup's whole horizon through the decorators, checking every
/// executed decision with model::check_feasibility. `capture_stride`
/// selects the slots captured for the probes.
TraceResult traced_run(Setup& setup, std::size_t capture_stride);

}  // namespace perfbench
