#include "tracing.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "alloc_hook.hpp"
#include "core/collab.hpp"
#include "model/costs.hpp"
#include "model/feasibility.hpp"
#include "sim/event_sim.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t count_nonzeros(const model::SlotDemand& slot) {
  std::uint64_t count = 0;
  for (const model::SbsDemand& sbs : slot) {
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      for (std::size_t k = 0; k < sbs.num_contents(); ++k) {
        if (sbs.at(m, k) != 0.0) ++count;
      }
    }
  }
  return count;
}

std::uint64_t decision_bytes(const model::SlotDecision& decision) {
  std::uint64_t bytes = 0;
  for (std::size_t n = 0; n < decision.cache.num_sbs(); ++n) {
    bytes += decision.cache.sbs_bitmap(n).size();
  }
  for (std::size_t n = 0; n < decision.load.num_sbs(); ++n) {
    bytes += decision.load.sbs_data(n).size() * sizeof(double);
    if (decision.load.has_neighbor()) {
      bytes += decision.load.neighbor_data(n).size() * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace

TracingPredictor::TracingPredictor(const workload::Predictor& inner)
    : inner_(&inner) {}

model::SlotDemand TracingPredictor::predict(std::size_t tau,
                                            std::size_t t) const {
  const auto start = Clock::now();
  model::SlotDemand out = inner_->predict(tau, t);
  seconds_ += since(start);
  ++calls_;
  nonzeros_ += count_nonzeros(out);
  return out;
}

model::SparseSlotDemand TracingPredictor::predict_sparse(std::size_t tau,
                                                         std::size_t t) const {
  const auto start = Clock::now();
  model::SparseSlotDemand out = inner_->predict_sparse(tau, t);
  seconds_ += since(start);
  ++calls_;
  for (const model::SparseSbsDemand& sbs : out) nonzeros_ += sbs.nnz();
  return out;
}

std::size_t TracingPredictor::horizon() const { return inner_->horizon(); }

void TracingPredictor::save_state(util::BinaryWriter& w) const {
  inner_->save_state(w);
}

void TracingPredictor::restore_state(util::BinaryReader& r) const {
  inner_->restore_state(r);
}

TracingController::TracingController(online::Controller& inner,
                                     const TracingPredictor& predictor,
                                     std::size_t capture_stride)
    : inner_(&inner),
      predictor_(&predictor),
      capture_stride_(std::max<std::size_t>(capture_stride, 1)) {}

std::string TracingController::name() const { return inner_->name(); }

void TracingController::reset(const model::ProblemInstance& instance) {
  last_executed_ = instance.initial_cache;
  captured_.clear();
  inner_->reset(instance);
}

model::SlotDecision TracingController::decide(
    const online::DecisionContext& ctx) {
  if (ctx.slot % capture_stride_ == 0) {
    captured_.push_back({ctx.slot, last_executed_});
  }
  const std::size_t failures_before =
      ctx.supervision != nullptr ? ctx.supervision->solve_failures : 0;
  const double predict_before = predictor_->seconds();
  const std::uint64_t allocs_before = allocation_count();
  const auto start = Clock::now();
  ++decisions_;
  try {
    model::SlotDecision decision = inner_->decide(ctx);
    decide_seconds_ += since(start);
    allocations_ += allocation_count() - allocs_before;
    predict_seconds_ += predictor_->seconds() - predict_before;
    if (ctx.supervision != nullptr &&
        ctx.supervision->solve_failures != failures_before) {
      ++failed_;
    }
    return decision;
  } catch (...) {
    ++failed_;
    throw;
  }
}

void TracingController::observe(std::size_t slot,
                                const model::SlotDecision& executed) {
  last_executed_ = executed.cache;
  inner_->observe(slot, executed);
}

void TracingController::resync(std::size_t slot,
                               const model::SlotDecision& executed) {
  last_executed_ = executed.cache;
  inner_->resync(slot, executed);
}

bool TracingController::supports_checkpoint() const {
  return inner_->supports_checkpoint();
}

void TracingController::save_state(util::BinaryWriter& w) const {
  inner_->save_state(w);
}

void TracingController::restore_state(util::BinaryReader& r) {
  inner_->restore_state(r);
}

double TraceResult::unexplained_s() const {
  return wall_s - (predict_s + decide_self_s + observe_s + enforce_s +
                   overlay_s + cost_s + events_s);
}

TraceResult traced_run(Setup& setup, std::size_t capture_stride) {
  const model::ProblemInstance& instance = setup.instance;
  const model::NetworkConfig& config = instance.config;
  const sim::SimulatorOptions& options = setup.options;
  TracingPredictor predictor(*setup.predictor);
  TracingController controller(*setup.controller, predictor, capture_stride);
  TraceResult out;
  setup.log.clear();

  const auto loop_start = Clock::now();
  double check_s = 0.0;
  controller.reset(instance);
  std::optional<sim::EventSimulator> events;
  sim::EventMetrics event_metrics;
  if (options.simulate_events) events.emplace(config, options.event_options);
  model::CostBreakdown total;
  model::CacheState previous = instance.initial_cache;
  const model::DemandTraceView trace = instance.demand_view();
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    const model::SlotDemandView truth = trace.slot(t);
    online::DecisionContext ctx;
    ctx.slot = t;
    if (truth.is_sparse()) {
      ctx.true_demand_sparse = truth.sparse();
    } else {
      ctx.true_demand = truth.dense();
    }
    ctx.predictor = &predictor;
    ctx.supervision = options.supervision;

    model::SlotDecision decision = controller.decide(ctx);

    auto span = Clock::now();
    model::enforce_feasibility(config, truth, decision);
    out.enforce_s += since(span);

    if (options.cooperative_routing && config.has_neighbor_tier()) {
      span = Clock::now();
      core::apply_neighbor_overlay(config, truth, decision, options.collab);
      out.overlay_s += since(span);
    }

    // The per-slot accounting Simulator::run does for its SlotRecord.
    span = Clock::now();
    total += model::slot_cost(config, truth, decision, previous);
    out.replacements += model::replacement_count(decision.cache, previous);
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      out.demand_total += truth.sbs(n).total();
      out.sbs_served += model::sbs_load(decision.load, n, truth.sbs(n));
      out.neigh_served += model::neighbor_load(decision.load, n, truth.sbs(n));
    }
    out.cost_s += since(span);

    if (events) {
      span = Clock::now();
      events->simulate_slot(t, truth, decision, previous, event_metrics);
      out.events_s += since(span);
    }

    span = Clock::now();
    if (!model::check_feasibility(config, truth, decision).empty()) {
      ++out.infeasible_slots;
    }
    out.decision_bytes = std::max(out.decision_bytes, decision_bytes(decision));
    check_s += since(span);

    span = Clock::now();
    previous = decision.cache;
    controller.observe(t, decision);
    out.observe_s += since(span);
  }
  out.wall_s = since(loop_start) - check_s;

  out.predict_s = controller.predict_seconds();
  out.decide_self_s = controller.decide_seconds() - out.predict_s;
  out.predict_calls = predictor.calls();
  out.predicted_nnz = predictor.nonzeros();
  out.decisions = controller.decisions();
  out.failed = controller.failed();
  out.decide_allocations = controller.allocations();
  out.requests = event_metrics.requests;
  out.solve_failures = setup.log.solve_failures;
  out.deadline_expirations = setup.log.deadline_expirations;
  out.total_cost = total.total();
  out.captured = controller.captured();
  return out;
}

}  // namespace perfbench
